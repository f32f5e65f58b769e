package core

import (
	"runtime"
	"testing"

	"repro/internal/dnn"
)

// eventSystems are the systems simulated on the pipeline.
var eventSystems = []string{"optimstore", "ctrlisp", "hostoffload", "interleaved"}

// runAlloc returns the bytes one run of system at the GPT-13B default
// allocates with the given window (the least of three runs, so a stray
// background allocation cannot inflate it).
func runAlloc(t *testing.T, system string, units int64) uint64 {
	cfg := DefaultConfig(dnn.GPT13B())
	cfg.MaxSimUnits = units
	var best uint64
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		mustRun(t, system, cfg)
		runtime.ReadMemStats(&ms)
		if b := ms.TotalAlloc - before; i == 0 || b < best {
			best = b
		}
	}
	return best
}

// TestUnitDataflowAllocScalesWithWindow pins the per-unit cost of a run:
// the units' dataflow rides pooled records, so each unit the window adds
// may cost only its share of the window-sized tables (device maps, grad
// chunk futures) and of the pools, not a closure per phase. Interleaved
// admits three of its four subgroups at once, so its in-flight window —
// and with it every pool: device operations, engine events, resource
// requests and queues, unit records — grows by three quarters of a unit
// per unit added, which is what its wider bound pays for (about 1.5 KB
// is measured, a little more under the race detector).
func TestUnitDataflowAllocScalesWithWindow(t *testing.T) {
	const small, large = 2048, 8192
	maxPerUnit := map[string]float64{
		"optimstore":  256,
		"ctrlisp":     256,
		"hostoffload": 256,
		"interleaved": 1792,
	}
	for _, system := range eventSystems {
		a, b := runAlloc(t, system, small), runAlloc(t, system, large)
		per := float64(b-min(a, b)) / float64(large-small)
		t.Logf("%s: %d B at %d units, %d B at %d units, %.0f B per added unit", system, a, small, b, large, per)
		if per > maxPerUnit[system] {
			t.Errorf("%s allocates %.0f B per added unit, want <= %.0f", system, per, maxPerUnit[system])
		}
	}
}

// BenchmarkUnitDataflow measures one unit of core dataflow per system at
// the GPT-13B default window: the device set-up is timed too, so ns/unit
// is the whole run divided by its units.
func BenchmarkUnitDataflow(b *testing.B) {
	for _, system := range eventSystems {
		b.Run(system, func(b *testing.B) {
			cfg := DefaultConfig(dnn.GPT13B())
			b.ReportAllocs()
			var units int64
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(system, cfg)
				if err != nil {
					b.Fatal(err)
				}
				r, err := sys.Run()
				if err != nil {
					b.Fatal(err)
				}
				units += r.SimUnits
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(units), "ns/unit")
		})
	}
}
