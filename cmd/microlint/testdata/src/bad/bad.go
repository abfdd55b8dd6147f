// Package bad seeds one violation per microlint rule; the linter self-test
// asserts each is reported at the expected line.
package bad

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"microtools/internal/analytic"
)

// hits and total trip L008 twice: expvar registers a shadow metrics surface
// and a package-level atomic is global-mutable metric state. The struct-field
// atomic inside counterStub below is fine.
var hits = expvar.NewInt("hits")

var total atomic.Int64

type counterStub struct{ n atomic.Int64 }

// wallClock trips L001 twice: Now and Since.
func wallClock() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// globalRand trips L002; the seeded form below it is allowed.
func globalRand() int {
	n := rand.Intn(10)
	r := rand.New(rand.NewSource(1))
	return n + r.Intn(10)
}

// prints trips L003.
func prints() {
	fmt.Println("hello from a library")
}

// droppedSpan trips L004: the span is bound but never ended and never
// escapes. endedSpan and escapedSpan below are both fine.
func droppedSpan(tr tracerStub) {
	sp := tr.Child("work")
	_ = 0
	use(sp.ID)
}

func endedSpan(tr tracerStub) {
	sp := tr.Start("work").Int("n", 1)
	defer sp.End()
}

func escapedSpan(tr tracerStub) spanStub {
	sp := tr.Child("work")
	return sp
}

// badErrors trips L005 twice: capitalization and trailing punctuation.
func badErrors() error {
	if err := errors.New("Something broke"); err != nil {
		return err
	}
	return fmt.Errorf("bad thing happened.")
}

// flattenedCause trips L007 once: the cause is formatted with %v. The %w
// form below it is clean, as is the bare width-star formatting of non-error
// values.
func flattenedCause(err error) error {
	if err != nil {
		return fmt.Errorf("bad: loading spec: %v", err)
	}
	wrapped := fmt.Errorf("bad: loading spec: %w", err)
	return fmt.Errorf("bad: %*d items: %w", 4, 7, wrapped)
}

// mintedRoot trips L006 twice: Background and TODO both sever the caller's
// cancellation chain.
func mintedRoot() context.Context {
	_ = context.TODO()
	return context.Background()
}

// MisplacedCtx trips L006: a context.Context that is not the first
// parameter. The unexported form below is tolerated (the convention binds
// the public surface).
func MisplacedCtx(name string, ctx context.Context) error {
	return ctx.Err()
}

func misplacedButUnexported(name string, ctx context.Context) error {
	return ctx.Err()
}

// CtxFirst follows the convention and is clean.
func CtxFirst(ctx context.Context, name string) error {
	return ctx.Err()
}

// legacyFanOut trips L009: RunParallel is the deprecated pre-campaign shim.
func legacyFanOut(rt runnerStub) {
	rt.RunParallel()
}

// legacyLaunch trips L009 once per deleted fan-out or screening API (plus
// the import of the deleted static cost model above): a call, a progress
// call, a type reference and a screen call.
func legacyLaunch(rt runnerStub) error {
	rt.LaunchAll()
	rt.LaunchAllProgress()
	var agg *core.LaunchErrors
	rt.ScreenTopKStatic()
	_ = analytic.L1
	return agg
}

// legacyObservability trips L009 once per deleted observability hook: the
// counter set's type and constructor, its sink interface, and the
// progress and tracker campaign setters.
func legacyObservability(rt runnerStub) {
	var set *obs.CounterSet
	set = obs.NewCounterSet()
	var sink obs.CounterSink = set
	rt.WithProgress(sink)
	rt.WithTracker(nil)
}

type runnerStub struct{}

func (runnerStub) RunParallel() {}

// suppressed would trip L003 but is disabled in place.
func suppressed() {
	fmt.Println("allowed here") //microlint:disable L003
}

type tracerStub struct{}

type spanStub struct{ ID int }

func (tracerStub) Child(string) spanStub  { return spanStub{} }
func (tracerStub) Start(string) spanStub  { return spanStub{} }
func (spanStub) Int(string, int) spanStub { return spanStub{} }
func (spanStub) End()                     {}

func use(int) {}

// libraryPanic trips L010 once: libraries return errors, they do not panic.
func libraryPanic(v int) int {
	if v < 0 {
		panic("bad: negative input")
	}
	return v
}
