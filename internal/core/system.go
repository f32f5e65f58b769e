package core

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/optim"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/units"
)

// System runs one experiment configuration and produces a Report.
type System interface {
	Name() string
	Run() (*Report, error)
}

// NewSystem constructs a system by name: "optimstore", "hostoffload",
// "interleaved", "ctrlisp" or "gpuresident". The event-driven systems run
// on the shared pipeline harness; gpuresident is analytic.
func NewSystem(name string, cfg Config) (System, error) {
	var display string
	var build func(*pipeline) stage
	switch name {
	case "optimstore":
		display, build = name, newOptimStore
	case "hostoffload":
		display, build = name, offload{}.flow
	case "interleaved":
		display, build = name, offload{cpu: true, stream: true, subgroups: true}.flow
	case "ctrlisp":
		display, build = "ctrl-isp", newCtrlISP
	case "gpuresident":
		return gpuResident{cfg}, nil
	default:
		return nil, fmt.Errorf("core: unknown system %q", name)
	}
	return &eventSystem{key: name, name: display, cfg: cfg, build: build}, nil
}

// traffic is a system's mandatory full-model step traffic outside the
// SSD: PCIe, DRAM and HBM bytes and the update-kernel ops. The reports
// and energyFloor both read it, so the two cannot disagree.
func traffic(system string, cfg Config) energy.Activity {
	totalUnits := cfg.TouchedUnits()
	gradB, woutB := cfg.GradBytesPerUnit(), cfg.WeightOutBytesPerUnit()
	residentB := cfg.ResidentBytesPerUnit()
	elems, flops := int64(cfg.ElemsPerPage()), int64(kernelFor(cfg).FlopsPerElem)
	ops := float64(totalUnits) * float64(elems) * float64(flops)
	// An off-die update reads and writes the state, reads the gradient
	// and writes the weights.
	update := float64((2*residentB + gradB + woutB) * totalUnits)
	var a energy.Activity
	switch system {
	case "optimstore":
		a.PCIeBytes = float64((gradB + woutB) * totalUnits)
		a.DRAMBytes = a.PCIeBytes
		// Every window unit runs its kernel once on its die (LAMB splits
		// the flops over two passes), so the on-die ops scale the window's.
		a.ODPOps = float64(cfg.SimUnits()*elems*flops) * cfg.ScaleFactor()
	case "hostoffload":
		a.PCIeBytes = float64(2 * residentB * totalUnits)
		a.DRAMBytes = a.PCIeBytes // controller DRAM staging
		a.HBMBytes = update
		a.GPUOps = ops
	case "interleaved":
		a.PCIeBytes = float64(2 * residentB * totalUnits)
		a.DRAMBytes = update // host update traffic
		a.CPUOps = ops
	case "ctrlisp":
		a.PCIeBytes = float64((gradB + woutB) * totalUnits)
		a.DRAMBytes = update
		a.CPUOps = ops
	case "gpuresident":
		// The fused update kernel streams state once in, once out, reads
		// gradients, writes working weights — over the parameters this
		// step touches (sparse models touch a small fraction).
		spec := cfg.Spec()
		touched := float64(cfg.Model.Params) * cfg.Model.UpdateFraction()
		a.HBMBytes = touched * (2*spec.ResidentBytes() + float64(spec.GradBytes+spec.WeightOutBytes))
		a.GPUOps = touched * float64(flops)
	}
	return a
}

// SystemNames lists the systems in presentation order.
func SystemNames() []string {
	return []string{"gpuresident", "hostoffload", "interleaved", "ctrlisp", "optimstore"}
}

// future is a one-shot completion that callbacks can wait on — used to let
// many units wait on one batched PCIe transfer.
type future struct {
	done    bool
	waiters []func()
}

func (f *future) resolve() {
	if f.done {
		return
	}
	f.done = true
	ws := f.waiters
	f.waiters = nil
	for _, w := range ws {
		w()
	}
}

func (f *future) then(fn func()) {
	if f.done {
		fn()
		return
	}
	f.waiters = append(f.waiters, fn)
}

// outBatcher coalesces per-unit output bytes into chunked link transfers.
// Every accumulated chunk (and the final remainder) is sent with the
// provided transfer function; onAll fires when every byte has been sent.
type outBatcher struct {
	chunk    int64
	pending  int64
	inFlight int
	closed   bool
	transfer func(n int64, done func())
	onAll    func()
}

func newOutBatcher(chunk int64, transfer func(int64, func()), onAll func()) *outBatcher {
	return &outBatcher{chunk: chunk, transfer: transfer, onAll: onAll}
}

// add queues n output bytes, flushing full chunks.
func (b *outBatcher) add(n int64) {
	b.pending += n
	for b.pending >= b.chunk {
		b.pending -= b.chunk
		b.send(b.chunk)
	}
}

// close flushes the remainder; onAll fires once outstanding sends finish.
func (b *outBatcher) close() {
	b.closed = true
	if b.pending > 0 {
		n := b.pending
		b.pending = 0
		b.send(n)
	} else {
		b.maybeDone()
	}
}

func (b *outBatcher) send(n int64) {
	b.inFlight++
	b.transfer(n, func() {
		b.inFlight--
		b.maybeDone()
	})
}

func (b *outBatcher) maybeDone() {
	if b.closed && b.inFlight == 0 && b.pending == 0 && b.onAll != nil {
		cb := b.onAll
		b.onAll = nil
		cb()
	}
}

// gradSchedule returns the simulated-window availability time of each
// gradient chunk under layer-wise overlap: the forward pass completes,
// then the backward pass emits gradients chunk by chunk. Times are scaled
// into the simulation window (every stage is linear in units, so the
// window pipeline is an exact miniature). Without LayerwiseOverlap all
// chunks are available at time zero.
func gradSchedule(cfg Config, nChunks int64) []sim.Time {
	avail := make([]sim.Time, nChunks)
	if !cfg.LayerwiseOverlap {
		return avail
	}
	total := float64(cfg.GPU.ComputeTime(cfg.Model.StepFlops(cfg.Batch)))
	fwd := total / 3
	bwd := total - fwd
	scale := cfg.ScaleFactor()
	for k := int64(0); k < nChunks; k++ {
		t := (fwd + bwd*float64(k+1)/float64(nChunks)) / scale
		avail[k] = units.Nanos(t)
	}
	return avail
}

// endToEnd fills the end-to-end fields of a report: forward+backward
// compute on the GPU, optimizer step partially hidden under it.
func (c Config) endToEnd(r *Report) {
	fwdBwd := c.GPU.ComputeTime(c.Model.StepFlops(c.Batch))
	r.FwdBwdTime = fwdBwd
	if c.LayerwiseOverlap {
		// The simulation already spans fwd+bwd (gradient availability) plus
		// the optimizer pipeline: OptStepTime holds the full span here.
		r.StepTime = r.OptStepTime
		if r.StepTime < fwdBwd {
			r.StepTime = fwdBwd
		}
		r.OptStepTime = r.StepTime - fwdBwd // exposed optimizer cost
	} else {
		hidden := fwdBwd.Scale(c.OverlapFraction)
		exposed := r.OptStepTime - hidden
		if exposed < 0 {
			exposed = 0
		}
		r.StepTime = fwdBwd + exposed
	}
	if r.StepTime > 0 {
		r.TokensPerSec = float64(c.Model.BatchTokens(c.Batch)) /
			r.StepTime.Seconds()
	}
}

// evalEnergy converts a full-model activity into the report's breakdown.
func evalEnergy(r *Report, a energy.Activity) {
	r.Energy = energy.DefaultCosts().Evaluate(a)
}

// meanBusUtil averages the channel-bus utilisation across a device.
func meanBusUtil(dev *ssd.Device) float64 {
	cfg := dev.Config()
	var total float64
	for ch := 0; ch < cfg.Channels; ch++ {
		total += dev.Channel(ch).BusUtilization()
	}
	return total / float64(cfg.Channels)
}

// kernelFor returns the ODP kernel descriptor for the configured
// optimizer, with gradient-accumulation fold work priced in.
func kernelFor(cfg Config) optim.Kernel {
	return optim.KernelFor(cfg.Optimizer).WithAccum(cfg.Accum())
}
