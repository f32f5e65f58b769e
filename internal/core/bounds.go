package core

import (
	"repro/internal/energy"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Bound is the analytic optimistic estimate of one design point, computed
// without running a simulation. Both components are true lower bounds on
// what the simulator can report, machine-guaranteed by the invariant
// registry (internal/invariant):
//
//   - StepFloor is the roofline floor; the roofline-sandwich invariant
//     pins floor ≤ simulated for every system and configuration.
//   - EnergyFloor prices exactly the traffic the conservation invariants
//     (pcie-conservation, bus-conservation, nand-accounting) prove every
//     simulated report must carry, at the same per-byte/per-op costs the
//     systems use. Components the invariants do not floor (GC erase
//     bytes, relocation traffic) enter at zero, and every cost constant
//     is positive, so EnergyFloor ≤ simulated energy.
//
// The autotuner (internal/search) prunes a candidate only when an already
// simulated point beats the candidate's Bound in every objective — since
// the bound is optimistic, the pruned candidate's actual results could
// only have been worse, so pruning never discards a Pareto point.
type Bound struct {
	StepFloor   sim.Time
	EnergyFloor float64 // joules
	Binding     string  // binding roofline constraint, for reports
}

// BoundFor computes the analytic bound of one (system, config) point.
// ok is false for unknown system names.
func BoundFor(system string, cfg Config) (Bound, bool) {
	r, ok := RooflineFor(system, cfg)
	if !ok {
		return Bound{}, false
	}
	return Bound{
		StepFloor:   r.Floor(),
		EnergyFloor: energyFloor(system, cfg),
		Binding:     r.Binding(),
	}, true
}

// energyFloor prices the mandatory traffic of one step: the system's
// traffic (the exact PCIe, DRAM, HBM and compute assignment its report
// makes) plus the conservation floor the invariant registry enforces on
// the simulated NAND reads/programs and channel bus, using the same
// scaled-window arithmetic, so the floor can never exceed what the
// simulation reports.
func energyFloor(system string, cfg Config) float64 {
	a := traffic(system, cfg)
	if system != "gpuresident" {
		kernel := kernelFor(cfg)
		simUnits := cfg.SimUnits()
		scale := cfg.ScaleFactor()
		pages := simUnits * int64(cfg.Comps()) * int64(cfg.SSD.Nand.PageSize)
		scaled := func(window int64) float64 {
			return float64(int64(float64(window) * scale))
		}
		a.NANDProgramBytes = scaled(pages)
		if system == "optimstore" {
			a.NANDReadBytes = scaled(pages * int64(kernel.ReadPasses))
			// Scattered layouts add cross-die hops on top; the colocated
			// window is the proven floor for every layout.
			busWindow := simUnits * (cfg.GradBytesPerUnit() + cfg.WeightOutBytesPerUnit())
			if kernel.ReadPasses > 1 {
				busWindow += simUnits * 128 // trust-ratio reduction round trip
			}
			a.BusBytes = scaled(busWindow)
		} else {
			a.NANDReadBytes = scaled(pages)
			a.BusBytes = scaled(pages * 2)
		}
	}
	return energy.DefaultCosts().Evaluate(a).Total()
}

// MeasureUpdateWAF measures the steady-state write-amplification factor
// of the full-sweep update stream on a scaled-down device of the given
// cell type and over-provisioning (see measureUpdateWAF). WAF depends
// only on (cell, overProvision), so the autotuner memoizes it per pair.
func MeasureUpdateWAF(cell nand.CellType, overProvision float64, steps int) (float64, error) {
	return measureUpdateWAF(cell, overProvision, steps)
}

// AnalyticLifetime computes the wear-limited device lifetime of a
// configuration, in optimizer steps, at a given steady-state WAF: the
// state footprint times WAF is programmed each step, spread across the
// full-geometry device's blocks with ideal wear levelling. fits is false
// (and steps zero) when the state does not fit the usable capacity —
// the same capacity test RunEndurance applies.
func AnalyticLifetime(cfg Config, cell nand.CellType, waf float64) (steps float64, fits bool) {
	stateBytes := int64(float64(cfg.Model.Params) * cfg.Spec().ResidentBytes())
	full := nand.ParamsFor(cell)
	geo := ssd.GeometryOf(cfg.SSD.Channels, cfg.SSD.DiesPerChannel, full)
	usable := float64(geo.TotalBytes()) * (1 - cfg.SSD.OverProvision)
	if float64(stateBytes) > usable {
		return 0, false
	}
	wear := nand.DefaultWearModel(cell)
	erasesPerStep := float64(stateBytes) * waf / float64(full.BlockBytes())
	return wear.LifetimeSteps(geo.BlocksTotal(), erasesPerStep), true
}
