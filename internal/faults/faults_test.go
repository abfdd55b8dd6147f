package faults

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"microtools/internal/telemetry"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if err := in.Check(PointCampaignLaunch, "k"); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	if in.Count() != 0 || in.Injected() != nil {
		t.Fatal("nil injector reports activity")
	}
	in.Reset() // must not panic
}

func TestUnarmedPointsNeverFault(t *testing.T) {
	in := New(42)
	for _, p := range Points() {
		for i := 0; i < 100; i++ {
			if err := in.Check(p, fmt.Sprintf("key%d", i)); err != nil {
				t.Fatalf("unarmed point %s faulted: %v", p, err)
			}
		}
	}
}

func TestDecisionIsDeterministicInSeedPointKey(t *testing.T) {
	faultedBy := func(seed int64) map[string]bool {
		in := New(seed).SetRate("*", 0.5)
		out := map[string]bool{}
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("variant%d", i)
			out[key] = in.Check(PointCampaignLaunch, key) != nil
		}
		return out
	}
	a, b := faultedBy(7), faultedBy(7)
	nFaulted := 0
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("same seed disagrees on %s", k)
		}
		if v {
			nFaulted++
		}
	}
	if nFaulted == 0 || nFaulted == len(a) {
		t.Fatalf("rate 0.5 faulted %d of %d sites: not probabilistic", nFaulted, len(a))
	}
	c := faultedBy(8)
	same := 0
	for k, v := range a {
		if c[k] == v {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced the identical fault set")
	}
}

func TestDeterminismUnderConcurrency(t *testing.T) {
	// The fault set must not depend on check ordering: hammer one injector
	// from many goroutines and compare against a serial replay.
	in := New(99).SetRate("*", 0.4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 400; i += 8 {
				in.Check(PointLauncherRep, fmt.Sprintf("k%d", i))
			}
		}(w)
	}
	wg.Wait()
	serial := New(99).SetRate("*", 0.4)
	for i := 0; i < 400; i++ {
		serial.Check(PointLauncherRep, fmt.Sprintf("k%d", i))
	}
	got, want := in.Injected(), serial.Injected()
	if len(got) != len(want) {
		t.Fatalf("concurrent run injected %d sites, serial %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("site %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestTransientSitesHealAfterBurst(t *testing.T) {
	in := New(1).SetRate(PointCampaignLaunch, 1).SetBurst(2)
	key := "kernel_u4"
	for attempt := 0; attempt < 2; attempt++ {
		if err := in.Check(PointCampaignLaunch, key); err == nil {
			t.Fatalf("attempt %d: expected injected fault", attempt)
		}
	}
	if err := in.Check(PointCampaignLaunch, key); err != nil {
		t.Fatalf("site did not heal after burst: %v", err)
	}
	if got := in.Count(); got != 2 {
		t.Fatalf("injected %d faults, want 2", got)
	}
}

func TestPermanentSitesNeverHeal(t *testing.T) {
	in := New(1).SetRate("*", 1).SetClass(ClassPermanent)
	for i := 0; i < 5; i++ {
		err := in.Check(PointCachePut, "k")
		if err == nil {
			t.Fatalf("check %d: permanent site healed", i)
		}
		if !errors.Is(err, ErrPermanent) || errors.Is(err, ErrTransient) {
			t.Fatalf("check %d: wrong class: %v", i, err)
		}
	}
}

func TestErrorTaxonomy(t *testing.T) {
	in := New(3).SetRate("*", 1)
	err := in.Check(PointSimStep, "k/inner0")
	if err == nil {
		t.Fatal("rate 1 did not inject")
	}
	if !errors.Is(err, ErrInjected) {
		t.Error("injected fault does not match ErrInjected")
	}
	if !errors.Is(err, ErrTransient) {
		t.Error("transient fault does not match ErrTransient")
	}
	if errors.Is(err, ErrPermanent) {
		t.Error("transient fault matches ErrPermanent")
	}
	var fe *Error
	if !errors.As(err, &fe) {
		t.Fatal("injected fault is not a *faults.Error")
	}
	if fe.Point != PointSimStep || fe.Key != "k/inner0" || fe.Class != ClassTransient {
		t.Errorf("fault fields: %+v", fe)
	}
	if !IsTransient(err) || IsPermanent(err) {
		t.Error("IsTransient/IsPermanent disagree with the sentinels")
	}
}

func TestWrappedRealErrors(t *testing.T) {
	cause := errors.New("connection reset")
	terr := Transient(cause)
	if !IsTransient(terr) || !errors.Is(terr, cause) {
		t.Errorf("Transient wrap: transient=%v cause=%v", IsTransient(terr), errors.Is(terr, cause))
	}
	if errors.Is(terr, ErrInjected) {
		t.Error("wrapped real error must not claim to be injected")
	}
	perr := Permanent(cause)
	if !IsPermanent(perr) || IsTransient(perr) {
		t.Error("Permanent wrap misclassified")
	}
	if Transient(nil) != nil || Permanent(nil) != nil {
		t.Error("wrapping nil must return nil")
	}
}

func TestExactRateOverridesWildcard(t *testing.T) {
	in := New(5).SetRate("*", 1).SetRate(PointCacheGet, 0)
	if err := in.Check(PointCacheGet, "k"); err != nil {
		t.Errorf("exact rate 0 should win over wildcard: %v", err)
	}
	if err := in.Check(PointCachePut, "k"); err == nil {
		t.Error("wildcard rate 1 should fault unlisted points")
	}
}

func TestCountersAndInjectedList(t *testing.T) {
	injected := &telemetry.Counter{}
	in := New(11).SetRate("*", 1).SetCounter(injected)
	in.Check(PointCampaignLaunch, "b")
	in.Check(PointCampaignLaunch, "a")
	in.Check(PointCacheGet, "a")
	if got := injected.Value(); got != 3 {
		t.Errorf("faults.injected = %d, want 3", got)
	}
	sites := in.Injected()
	if len(sites) != 3 {
		t.Fatalf("%d sites, want 3", len(sites))
	}
	// Sorted by (point, key).
	if sites[0].Point != PointCacheGet || sites[1].Key != "a" || sites[2].Key != "b" {
		t.Errorf("sites not sorted: %+v", sites)
	}
	in.Reset()
	if in.Count() != 0 {
		t.Error("Reset did not clear hit history")
	}
	if err := in.Check(PointCampaignLaunch, "a"); err == nil {
		t.Error("Reset must keep the fault plan armed")
	}
}
