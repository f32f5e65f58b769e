package core

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// Roofline is the analytic lower bound of one optimizer step for each
// system: the slowest of the interfaces the step must cross. The
// discrete-event simulation can only add queueing and dependency stalls on
// top, so `floor ≤ simulated ≤ k·floor` (small k) is the package's
// model-sanity invariant — a simulated time below the floor means the
// simulator is dropping work; far above it means an accidental
// serialization. The invariant registry (internal/invariant) machine-checks
// this sandwich for every system across swept configurations.
type Roofline struct {
	PCIe    sim.Time // external link occupancy (busier direction)
	Bus     sim.Time // aggregate channel-bus occupancy
	Media   sim.Time // plane-level read+program occupancy
	Compute sim.Time // update-kernel occupancy (ODP, controller CPU or GPU)
}

// Floor returns the binding constraint.
func (r Roofline) Floor() sim.Time {
	f := r.PCIe
	for _, t := range []sim.Time{r.Bus, r.Media, r.Compute} {
		if t > f {
			f = t
		}
	}
	return f
}

// Binding names the binding constraint, for reports and regression tests.
// Ties resolve to the first name in pcie, bus, media, compute order.
func (r Roofline) Binding() string {
	candidates := []struct {
		name string
		t    sim.Time
	}{{"pcie", r.PCIe}, {"bus", r.Bus}, {"media", r.Media}, {"compute", r.Compute}}
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.t > best.t {
			best = c
		}
	}
	return best.name
}

// RooflineFor computes the analytic bound for a system by its constructor
// name (the names core.NewSystem accepts). ok is false for unknown names.
func RooflineFor(system string, cfg Config) (r Roofline, ok bool) {
	switch system {
	case "optimstore":
		return optimStoreRoofline(cfg), true
	case "hostoffload":
		return offloadRoofline(cfg, cfg.GPU.KernelTime), true
	case "interleaved":
		return offloadRoofline(cfg, cfg.HostCPU.KernelTime), true
	case "ctrlisp":
		return ctrlISPRoofline(cfg), true
	case "gpuresident":
		// A single HBM-roofline update kernel, no external traffic. The
		// system is itself analytic, so its report matches the floor.
		a := traffic(system, cfg)
		return Roofline{Compute: cfg.GPU.KernelTime(a.GPUOps, a.HBMBytes)}, true
	default:
		return Roofline{}, false
	}
}

// optimStoreRoofline computes the analytic bound for the in-storage system.
func optimStoreRoofline(cfg Config) Roofline {
	touched := float64(cfg.TouchedUnits())
	gradB := float64(cfg.GradBytesPerUnit())
	woutB := float64(cfg.WeightOutBytesPerUnit())
	comps := float64(cfg.Comps())
	planes := float64(cfg.SSD.Geometry().Planes())
	dies := float64(cfg.SSD.Geometry().Dies())
	kernel := kernelFor(cfg)
	passes := float64(kernel.ReadPasses)

	var r Roofline
	// PCIe: gradients in, weights out — full duplex, take the max.
	ext := cfg.Link.EffectiveGBps()
	in := touched * gradB / float64(ext) // bytes/GBps = ns
	out := touched * woutB / float64(ext)
	r.PCIe = units.Nanos(maxf(in, out))
	// Channel buses carry gradients in and weights out, aggregate.
	bus := cfg.SSD.ChannelMBps().Bps()
	r.Bus = bus.TransferTimeF(touched * (gradB + woutB))
	// Media: each unit's pages are read (per pass) and programmed once,
	// spread across all planes. Reads and programs of one page share its
	// plane, so their times add.
	perPlanePages := touched * comps / planes
	tR := float64(cfg.SSD.Nand.ReadLatency)
	tP := float64(cfg.SSD.Nand.ProgramLatency)
	r.Media = units.Nanos(perPlanePages * (passes*tR + tP))
	// ODP compute, spread across dies.
	elems := float64(cfg.ElemsPerPage())
	r.Compute = units.Nanos(touched / dies * float64(cfg.ODP.ComputeTime(int(elems), kernel.FlopsPerElem)))
	return r
}

// stateRoundTrip is the bus and media floor of the baselines that move the
// full resident state off the dies and back: every resident byte crosses
// the channel buses both ways (half duplex: the directions sum), and each
// page is read once and programmed once.
func stateRoundTrip(cfg Config) (bus, media sim.Time) {
	touched := float64(cfg.TouchedUnits())
	residentB := float64(cfg.ResidentBytesPerUnit())
	bus = cfg.SSD.ChannelMBps().Bps().TransferTimeF(touched * 2 * residentB)
	perPlanePages := touched * float64(cfg.Comps()) / float64(cfg.SSD.Geometry().Planes())
	media = units.Nanos(perPlanePages *
		float64(cfg.SSD.Nand.ReadLatency+cfg.SSD.Nand.ProgramLatency))
	return bus, media
}

// offloadRoofline computes the analytic bound for the offload family: the
// resident state crosses PCIe both ways (full duplex: per direction) on
// top of the state round trip, and the update engine — the GPU through
// HBM or the host CPU through DRAM, per kernelTime — must stream the
// state and retire the kernel FLOPs. Batch roofline times sum to at least
// the whole-step roofline, so this is a valid lower bound. The subgroup
// depth shapes the pipeline, not the mandatory traffic, so it does not
// appear here: any K pays the same floor.
func offloadRoofline(cfg Config, kernelTime func(flops, bytes float64) sim.Time) Roofline {
	touched := float64(cfg.TouchedUnits())
	residentB := float64(cfg.ResidentBytesPerUnit())
	var r Roofline
	r.PCIe = cfg.Link.EffectiveGBps().TransferTimeF(touched * residentB)
	r.Bus, r.Media = stateRoundTrip(cfg)
	elems := float64(cfg.ElemsPerPage())
	gradB := float64(cfg.GradBytesPerUnit())
	woutB := float64(cfg.WeightOutBytesPerUnit())
	updateBytes := touched * (2*residentB + gradB + woutB)
	flops := touched * elems * float64(kernelFor(cfg).FlopsPerElem)
	r.Compute = kernelTime(flops, updateBytes)
	return r
}

// ctrlISPRoofline computes the analytic bound for the in-controller
// processing baseline: gradients and low-precision weights cross PCIe, the
// state round trip runs over the channel buses and media, and the
// controller's embedded cores run the update kernel.
func ctrlISPRoofline(cfg Config) Roofline {
	touched := float64(cfg.TouchedUnits())
	residentB := float64(cfg.ResidentBytesPerUnit())
	gradB := float64(cfg.GradBytesPerUnit())
	woutB := float64(cfg.WeightOutBytesPerUnit())
	var r Roofline
	// PCIe: gradients in, working-precision weights out.
	ext := cfg.Link.EffectiveGBps()
	r.PCIe = units.Nanos(maxf(touched*gradB/float64(ext), touched*woutB/float64(ext)))
	r.Bus, r.Media = stateRoundTrip(cfg)
	// Controller kernel: one serial engine; per-unit roofline times sum.
	elems := float64(cfg.ElemsPerPage())
	perUnit := cfg.CtrlCPU.KernelTime(elems*float64(kernelFor(cfg).FlopsPerElem),
		2*residentB+gradB+woutB)
	r.Compute = units.Nanos(touched * float64(perUnit))
	return r
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
