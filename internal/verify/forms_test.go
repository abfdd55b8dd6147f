package verify

import (
	"reflect"
	"testing"

	"microtools/internal/isa"
)

// TestOpFormsTableMatchesCompute compares the init-built operand-form table
// with computeOpForms, the function the lazily filled, mutex-guarded map it
// replaced memoized, for every Op value (nil for the values outside the
// subset).
func TestOpFormsTableMatchesCompute(t *testing.T) {
	for i := 0; i < 256; i++ {
		op := isa.Op(i)
		if got, want := opForms(op), computeOpForms(op); !reflect.DeepEqual(got, want) {
			t.Errorf("opForms(%v) = %q, want %q", op, got, want)
		}
	}
}
