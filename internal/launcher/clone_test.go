package launcher

import (
	"encoding/json"
	"reflect"
	"testing"
)

// fillNonZero sets every field reachable from v to a non-zero value derived
// from *seed: pointers are allocated, slices get two elements, maps one
// entry. It fails on kinds it cannot fill, so a new field of such a kind
// forces this test (and Clone) to be revisited.
func fillNonZero(t *testing.T, v reflect.Value, seed *int) {
	t.Helper()
	*seed++
	n := *seed
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n) + 0.5)
	case reflect.String:
		v.SetString("s" + string(rune('a'+n%26)))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i), seed)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), seed)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), seed)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), seed)
		}
	case reflect.Map:
		k := reflect.New(v.Type().Key()).Elem()
		e := reflect.New(v.Type().Elem()).Elem()
		fillNonZero(t, k, seed)
		fillNonZero(t, e, seed)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	default:
		t.Fatalf("cannot fill a %s field: extend fillNonZero and Measurement.Clone", v.Type())
	}
}

// perturb changes every leaf reachable from v, following pointers, slices
// and maps into the memory they reference.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1000)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(v.Uint() + 1000)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1000)
	case reflect.String:
		v.SetString(v.String() + "!")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(v.Field(i))
		}
	case reflect.Pointer:
		perturb(v.Elem())
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturb(v.Index(i))
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			perturb(e)
			v.SetMapIndex(k, e)
		}
	}
}

// isReference reports whether a value of kind k refers to memory outside
// itself, i.e. whether a shallow copy would share it.
func isReference(k reflect.Kind) bool {
	return k == reflect.Pointer || k == reflect.Slice || k == reflect.Map
}

// TestMeasurementCloneSharesNoMemory: a clone of a measurement with every
// field populated is deeply equal to the original, and mutating any
// reference-typed field of the clone leaves the original untouched — the
// contract the measurement cache relies on to hand each hit a private copy.
func TestMeasurementCloneSharesNoMemory(t *testing.T) {
	fresh := func() *Measurement {
		var m Measurement
		seed := 0
		fillNonZero(t, reflect.ValueOf(&m).Elem(), &seed)
		return &m
	}
	orig, want := fresh(), fresh()
	for _, name := range []string{"Arrays", "Adaptive", "Counters", "Energy"} {
		if reflect.ValueOf(orig).Elem().FieldByName(name).IsZero() {
			t.Fatalf("fill left %s zero", name)
		}
	}

	clone := orig.Clone()
	if clone == orig {
		t.Fatal("Clone returned its receiver")
	}
	if !reflect.DeepEqual(clone, orig) {
		t.Fatalf("clone differs from the original:\n%+v\nvs\n%+v", clone, orig)
	}

	cv := reflect.ValueOf(clone).Elem()
	typ := cv.Type()
	refs := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !isReference(f.Type.Kind()) {
			continue
		}
		refs++
		perturb(cv.Field(i))
		if !reflect.DeepEqual(orig, want) {
			t.Errorf("mutating the clone's %s changed the original", f.Name)
			orig = fresh()
		}
	}
	if refs < 4 {
		t.Fatalf("found %d reference-typed fields, want at least Arrays, Adaptive, Counters, Energy", refs)
	}
}

// TestMeasurementCloneKeepsEncoding: nil and empty reference fields survive
// Clone as they were, so a clone encodes byte-identically to its original.
func TestMeasurementCloneKeepsEncoding(t *testing.T) {
	for _, m := range []*Measurement{
		{Kernel: "nil-fields"},
		{Kernel: "empty-arrays", Arrays: []uint64{}},
	} {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(m.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: clone encodes as\n%s\nwant\n%s", m.Kernel, got, want)
		}
	}
}
