// Package plugins ships ready-made MicroCreator plugins — the user-facing
// side of the paper's §3.3 plugin system ("The user can easily add, remove,
// or modify a pass without recompiling the system"). Import this package
// for its side effects to register all of them, or register individual
// plugins with microtools.RegisterPlugin. Then name them in the generation
// options of the library quick start (Example in the root package's
// example_test.go):
//
//	import _ "microtools/plugins"
//	opts := microtools.GenerateOptions{Plugins: []string{"enable-schedule", "cap-variants-64"}}
package plugins

import (
	"fmt"

	"microtools/internal/ir"
	"microtools/internal/passes"
	"microtools/internal/plugin"
)

// EnableSchedule turns on the optional load/store interleaving pass, which
// ships gated off (§3.3: "Most internal passes are performed because their
// gates always return true. A user may modify it so as not to always
// execute the pass").
var EnableSchedule = plugin.Func{
	PluginName: "enable-schedule",
	Init: func(m *passes.Manager) error {
		return m.SetGate("schedule", passes.AlwaysGate)
	},
}

// DisableSwaps removes both operand-swap passes, generating only the
// literal kernels the spec describes.
var DisableSwaps = plugin.Func{
	PluginName: "disable-swaps",
	Init: func(m *passes.Manager) error {
		if err := m.SetGate("swap-before-unroll", passes.NeverGate); err != nil {
			return err
		}
		return m.SetGate("swap-after-unroll", passes.NeverGate)
	},
}

// CapVariants builds a plugin that inserts a hard variant cap after the
// last fan-out pass, regardless of what the spec requests ("The user can
// limit the number of benchmark programs if it is superfluous", §3.2).
func CapVariants(n int) plugin.Func {
	return plugin.Func{
		PluginName: fmt.Sprintf("cap-variants-%d", n),
		Init: func(m *passes.Manager) error {
			return m.InsertAfter("swap-after-unroll", &passes.Pass{
				Name: fmt.Sprintf("cap-%d", n),
				Doc:  fmt.Sprintf("truncate the variant set to %d kernels", n),
				Run: func(_ *passes.Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
					if len(ks) > n {
						ks = ks[:n]
					}
					return ks, nil
				},
			})
		},
	}
}

// TagMachine builds a plugin that stamps every variant with a free-form tag
// (e.g. the target machine), carried into the generated program names and
// the launcher's CSV — a minimal example of a user-written pass.
func TagMachine(tag string) plugin.Func {
	return plugin.Func{
		PluginName: "tag-" + tag,
		Init: func(m *passes.Manager) error {
			return m.InsertBefore("prologue-epilogue", &passes.Pass{
				Name: "tag-" + tag,
				Doc:  "stamp variants with a user tag",
				Run: func(_ *passes.Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
					for _, k := range ks {
						k.Tag("m", tag)
					}
					return ks, nil
				},
			})
		},
	}
}

// OnlyMaxUnroll keeps only each family's largest-unroll variants — the
// usual choice once a study has shown where the curve saturates.
var OnlyMaxUnroll = plugin.Func{
	PluginName: "only-max-unroll",
	Init: func(m *passes.Manager) error {
		return m.InsertAfter("unroll", &passes.Pass{
			Name: "only-max-unroll",
			Doc:  "drop all but the largest unroll factor per family",
			Run: func(_ *passes.Context, ks []*ir.Kernel) ([]*ir.Kernel, error) {
				maxU := map[string]int{}
				for _, k := range ks {
					if k.Unroll > maxU[k.BaseName] {
						maxU[k.BaseName] = k.Unroll
					}
				}
				var out []*ir.Kernel
				for _, k := range ks {
					if k.Unroll == maxU[k.BaseName] {
						out = append(out, k)
					}
				}
				return out, nil
			},
		})
	},
}

func init() {
	plugin.MustRegister(EnableSchedule)
	plugin.MustRegister(DisableSwaps)
	plugin.MustRegister(CapVariants(64))
	plugin.MustRegister(OnlyMaxUnroll)
}
