package launcher

import (
	"reflect"
	"testing"
)

func TestNewOptionsDefaults(t *testing.T) {
	if got, want := NewOptions(), DefaultOptions(); !reflect.DeepEqual(got, want) {
		t.Errorf("NewOptions() = %+v, want DefaultOptions() = %+v", got, want)
	}
}

func TestNewOptionsAppliesSetters(t *testing.T) {
	o := NewOptions(
		WithMachine("nehalem-dual/8"),
		WithArrayBytes(1<<10),
		WithReps(8, 2),
		nil, // nil setters are skipped
	)
	if o.MachineName != "nehalem-dual/8" || o.ArrayBytes != 1<<10 || o.OuterReps != 8 || o.InnerReps != 2 {
		t.Errorf("setters not applied: %+v", o)
	}
	// Untouched fields keep their defaults.
	if !o.Calibrate || !o.DisableInterrupts || o.AlignWindow != 4096 {
		t.Errorf("defaults lost: %+v", o)
	}
}

// FuzzValidate checks that Validate never panics, that a validated Options
// is a fixpoint (validating twice changes nothing), and that acceptance is
// consistent with the documented invariants.
func FuzzValidate(f *testing.F) {
	f.Add("nehalem-dual", int64(1<<16), int64(4096), int64(0), int64(4), 4, 4, 1, 0)
	f.Add("", int64(0), int64(0), int64(-1), int64(0), 0, 0, 0, -1)
	f.Add("m", int64(1), int64(3), int64(2), int64(1), -5, 1<<20, 3, 7)
	f.Fuzz(func(t *testing.T, machine string, arrayBytes, alignWindow, align0, elemBytes int64,
		inner, outer, cores, nbVectors int) {
		o := Options{
			MachineName:  machine,
			ArrayBytes:   arrayBytes,
			AlignWindow:  alignWindow,
			Alignments:   []int64{align0},
			ElementBytes: elemBytes,
			InnerReps:    inner,
			OuterReps:    outer,
			Cores:        cores,
			NBVectors:    nbVectors,
		}
		err := o.Validate()
		if err != nil {
			return
		}
		// Post-conditions of a successful validation.
		if o.MachineName == "" || o.ArrayBytes <= 0 {
			t.Fatalf("accepted invalid machine/array: %+v", o)
		}
		if o.AlignWindow <= 0 || o.AlignWindow&(o.AlignWindow-1) != 0 {
			t.Fatalf("accepted bad alignment window: %+v", o)
		}
		for i, a := range o.Alignments {
			if a < 0 || a >= o.AlignWindow {
				t.Fatalf("accepted alignment[%d]=%d outside window %d", i, a, o.AlignWindow)
			}
		}
		if o.ElementBytes <= 0 || o.InnerReps <= 0 || o.OuterReps <= 0 || o.Cores <= 0 || o.NBVectors < 0 {
			t.Fatalf("normalization missed a field: %+v", o)
		}
		// Validate is idempotent: a second pass is a no-op.
		before := o
		if err := o.Validate(); err != nil {
			t.Fatalf("revalidation failed: %v", err)
		}
		if o.AlignWindow != before.AlignWindow || o.ElementBytes != before.ElementBytes ||
			o.InnerReps != before.InnerReps || o.OuterReps != before.OuterReps || o.Cores != before.Cores {
			t.Fatalf("Validate is not a fixpoint: %+v -> %+v", before, o)
		}
	})
}
