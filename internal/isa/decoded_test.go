package isa

import (
	"reflect"
	"sync"
	"testing"
)

func TestDecodedCachesPerSignature(t *testing.T) {
	p := buildLoop(t)
	nhm, snb := Nehalem(), SandyBridge()

	d1, err := p.Decoded(nhm)
	if err != nil {
		t.Fatal(err)
	}
	// A second Arch value with the same decode signature must hit the cache.
	d2, err := p.Decoded(Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("same decode signature did not share one DecodedProgram")
	}
	// A different signature gets its own decode.
	d3, err := p.Decoded(snb)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Error("distinct decode signatures shared one DecodedProgram")
	}
	if d1.Prog != p || d3.Prog != p {
		t.Error("DecodedProgram.Prog does not point back at the program")
	}
}

func TestDecodedMatchesDirectDecode(t *testing.T) {
	p := buildLoop(t)
	for _, arch := range []*Arch{Nehalem(), SandyBridge()} {
		dp, err := p.Decoded(arch)
		if err != nil {
			t.Fatal(err)
		}
		if len(dp.Uops) != len(p.Insts) || len(dp.PredInit) != len(p.Insts) {
			t.Fatalf("%s: decoded lengths %d/%d, want %d", arch.Name,
				len(dp.Uops), len(dp.PredInit), len(p.Insts))
		}
		for i := range p.Insts {
			want, err := arch.Decode(&p.Insts[i], nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dp.Uops[i], want) {
				t.Errorf("%s: inst %d uops = %+v, want %+v", arch.Name, i, dp.Uops[i], want)
			}
		}
		// Static prediction: the loop's backward jge starts taken, and no
		// other instruction does.
		for i := range p.Insts {
			in := &p.Insts[i]
			want := uint8(1)
			if in.Op.IsBranch() && in.Target <= i {
				want = 2
			}
			if dp.PredInit[i] != want {
				t.Errorf("%s: PredInit[%d] = %d, want %d", arch.Name, i, dp.PredInit[i], want)
			}
		}
	}
}

func TestDecodedConcurrentCallsShareOneDecode(t *testing.T) {
	p := buildLoop(t)
	const workers = 16
	got := make([]*DecodedProgram, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dp, err := p.Decoded(Nehalem())
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = dp
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatal("concurrent Decoded calls returned distinct instances")
		}
	}
}

func TestDecodedCacheEvictsOldestSignature(t *testing.T) {
	p := buildLoop(t)
	first, err := p.Decoded(Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	// Fill the cache with memoCap further signatures so the first
	// one falls out.
	for i := 0; i < memoCap; i++ {
		a := Nehalem()
		a.FPAddLat = 50 + i
		if _, err := p.Decoded(a); err != nil {
			t.Fatal(err)
		}
	}
	again, err := p.Decoded(Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Error("evicted signature still served the old instance")
	}
	if len(again.Uops) != len(first.Uops) {
		t.Error("re-decode after eviction disagrees with the original")
	}
}

func TestDecodedErrorsNotCached(t *testing.T) {
	p := &Program{Name: "empty", Labels: map[string]int{}}
	if _, err := p.Decoded(Nehalem()); err == nil {
		t.Fatal("decoding an invalid program must fail")
	}
	// Fixing the program after a failed decode must succeed: errors are
	// never cached.
	p.Insts = []Inst{{Op: RET}}
	if _, err := p.Decoded(Nehalem()); err != nil {
		t.Fatalf("decode after fixing the program: %v", err)
	}
}

func TestCloneStartsWithEmptyDecodeCache(t *testing.T) {
	p := buildLoop(t)
	d1, err := p.Decoded(Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	d2, err := q.Decoded(Nehalem())
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Error("clone shared the original's cached decode")
	}
	if d2.Prog != q {
		t.Error("clone's decode points at the wrong program")
	}
}
