package campaign

import (
	"errors"
	"fmt"
)

// VariantError records one variant's failure inside a campaign.
type VariantError struct {
	// Index is the variant's position in generation order.
	Index int
	// Name is the variant's kernel name.
	Name string
	// Err is the underlying launch error.
	Err error
}

func (e *VariantError) Error() string {
	return fmt.Sprintf("variant %s (#%d): %v", e.Name, e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *VariantError) Unwrap() error { return e.Err }

// ErrNoVariants reports a campaign whose description parsed and generated
// cleanly but emitted zero variants — usually an empty or over-filtered
// sweep. Detect it with errors.Is(err, campaign.ErrNoVariants).
var ErrNoVariants = errors.New("campaign: the description generated no variants")

// SetupError reports a failure before any variant was measured: the spec
// file could not be opened, or the generation pipeline itself failed. It
// is distinct from *Error, which aggregates per-variant measurement
// failures after the pipeline started producing work. Both Run and
// RunFile wrap setup failures in this type, so callers get one shape for
// "the campaign never ran" across the reader- and path-based entry
// points:
//
//	var se *campaign.SetupError
//	if errors.As(err, &se) { ... }          // any setup failure
//	if errors.Is(err, fs.ErrNotExist) { ... } // spec file missing
type SetupError struct {
	// Stage is the setup phase that failed: "open" (spec file access,
	// RunFile only) or "generate" (the variant pipeline).
	Stage string
	// Path is the spec file path for Stage "open"; empty for reader-based
	// entry points.
	Path string
	// Err is the underlying cause, reachable through errors.Is/As.
	Err error
}

func (e *SetupError) Error() string {
	if e.Stage == "open" && e.Path != "" {
		return fmt.Sprintf("campaign: open %s: %v", e.Path, e.Err)
	}
	return fmt.Sprintf("campaign: %s: %v", e.Stage, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *SetupError) Unwrap() error { return e.Err }
