// Package sim trips L015 three times: a simulated machine that holds its
// own launch hooks (a trace span, a fault plan and a telemetry counter)
// instead of leaving them to the launcher.
package sim

import (
	"microtools/internal/faults"
	"microtools/internal/obs"
	"microtools/internal/telemetry"
)

// Machine is the second home of the launch hooks L015 keeps out.
type Machine struct {
	span     obs.Span
	injector *faults.Injector
	insts    *telemetry.Counter
	now      int64
}

// step consults the fault plan and traces one batch.
func (m *Machine) step(key string) error {
	if err := m.injector.Check(faults.PointSimStep, key); err != nil {
		return err
	}
	sp := m.span.Child("sim.run")
	m.insts.Add(1)
	sp.End()
	return nil
}
