package cpu

import (
	"reflect"
	"testing"
)

// TestResultAddSumsEveryField: Result.Add must fold every counter, so
// a field added to Result later cannot silently drop out of the team
// and launch totals. Each numeric field (nested ones too) is set to a
// distinct value and must come out doubled; Truncated must be ORed.
func TestResultAddSumsEveryField(t *testing.T) {
	var r Result
	next := int64(1)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Int64:
			v.SetInt(next)
			next++
		case reflect.Bool:
		default:
			t.Fatalf("Result has a %s field; teach Add and this test to fold it", v.Type())
		}
	}
	fill(reflect.ValueOf(&r).Elem())

	sum := r
	sum.Add(r)
	var check func(path string, got, in reflect.Value)
	check = func(path string, got, in reflect.Value) {
		switch got.Kind() {
		case reflect.Struct:
			for i := 0; i < got.NumField(); i++ {
				check(path+"."+got.Type().Field(i).Name, got.Field(i), in.Field(i))
			}
		case reflect.Int64:
			if got.Int() != 2*in.Int() {
				t.Errorf("Add: %s = %d, want %d", path, got.Int(), 2*in.Int())
			}
		}
	}
	check("Result", reflect.ValueOf(sum), reflect.ValueOf(r))

	for _, tc := range []struct{ a, b, want bool }{
		{false, false, false}, {true, false, true}, {false, true, true}, {true, true, true},
	} {
		a, b := Result{Truncated: tc.a}, Result{Truncated: tc.b}
		a.Add(b)
		if a.Truncated != tc.want {
			t.Errorf("Add: Truncated %v|%v = %v, want %v", tc.a, tc.b, a.Truncated, tc.want)
		}
	}
}
