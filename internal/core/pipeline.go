package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/host"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// pipeline is the harness every event-driven system runs on. It owns what
// the systems share: building the device, link and layout, preloading the
// window and arming faults; admitting units into a bounded in-flight
// window; on the last unit's completion flushing the outbound weights,
// draining the device, disarming faults and stamping the end time; and
// assembling the report from the device and link counters. A system
// contributes only a stage (its admission cap, per-unit dataflow, bytes
// returned per unit and compute utilisation) and its traffic entry.
type pipeline struct {
	cfg  Config
	eng  *sim.Engine
	dev  *ssd.Device
	geo  ssd.Geometry
	link *host.Link
	lay  *layout.Layout
	inj  *fault.Injector
	out  *outBatcher // weights returned to the host, in chunked transfers

	simUnits int64
	comps    int

	stage
	done            func() // p.unitDone, bound once so admission allocates nothing
	next, completed int64
	endTime         sim.Time
	finished        bool
}

// stage is what one event-driven system plugs into the pipeline.
type stage struct {
	// inflightCap bounds the units admitted but not yet complete.
	inflightCap int64
	// start issues unit u's dataflow; done must run once it completes.
	start func(u int64, done func())
	// outBytes is what each completed unit returns to the host.
	outBytes int64
	// fill records the system's compute utilisation on the report.
	fill func(r *Report)
}

// eventSystem is a System simulated on the pipeline.
type eventSystem struct {
	key   string // core.NewSystem key, which selects the traffic
	name  string // Report.System
	cfg   Config
	build func(p *pipeline) stage
}

// Name implements System.
func (s *eventSystem) Name() string { return s.name }

// Run implements System.
func (s *eventSystem) Run() (*Report, error) {
	p, err := newPipeline(s.cfg)
	if err != nil {
		return nil, err
	}
	p.stage = s.build(p)
	p.done = p.unitDone
	p.launch()
	p.eng.Run()
	if !p.finished {
		return nil, fmt.Errorf("core: %s simulation wedged at %v (%d/%d units)",
			s.name, p.eng.Now(), p.completed, p.simUnits)
	}
	return p.report(s), nil
}

// newPipeline builds the simulated device with the window's state
// preloaded under the configured layout, and arms the fault plan.
func newPipeline(cfg Config) (*pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &pipeline{cfg: cfg, eng: sim.NewEngine(), simUnits: cfg.SimUnits(), comps: cfg.Comps()}
	if cfg.Trace != nil {
		p.eng.SetTracer(cfg.Trace)
	}
	p.dev = ssd.NewDevice(p.eng, cfg.SSD)
	p.geo = p.dev.Geometry()
	p.link = host.NewLink(p.eng, cfg.Link)
	// Every system places state with the same layout machinery, even the
	// offload baselines that move every page anyway, so comparisons stay
	// apples-to-apples.
	lay, err := layout.New(p.geo, p.comps, p.simUnits, cfg.Layout)
	if err != nil {
		return nil, err
	}
	if lay.LogicalPages() > p.dev.FTL().LogicalPages() {
		return nil, fmt.Errorf("core: window of %d pages exceeds device logical capacity %d — lower MaxSimUnits",
			lay.LogicalPages(), p.dev.FTL().LogicalPages())
	}
	p.lay = lay
	p.dev.SetPlaneMapper(lay.PlaneMapper())
	for lpa := int64(0); lpa < lay.LogicalPages(); lpa++ {
		p.dev.Preload(lpa)
	}
	p.inj = armFaults(p.eng, p.dev, cfg)
	p.out = newOutBatcher(cfg.TransferChunkBytes, p.link.FromDevice, func() {
		p.dev.Drain(func() {
			disarmFaults(p.inj)
			p.endTime = p.eng.Now()
			p.finished = true
		})
	})
	return p, nil
}

// launch admits units while the in-flight window has room.
func (p *pipeline) launch() {
	for p.next < p.simUnits && p.next-p.completed < p.inflightCap {
		u := p.next
		p.next++
		p.start(u, p.done)
	}
}

// unitDone retires one unit: its outbound bytes join the batcher, the
// last unit closes it (whose final flush drains the device), and the
// freed window slot admits the next unit.
func (p *pipeline) unitDone() {
	p.out.add(p.outBytes)
	p.completed++
	if p.completed == p.simUnits {
		p.out.close()
	}
	p.launch()
}

// planeDepth is the admission window that keeps every plane's read/
// program pipeline full without flooding the plane queues with reads
// ahead of programs: ~4 units in flight per plane-slot a unit occupies,
// so planes stay pipelined regardless of how many pages a unit has
// (SGD's single-page units need a 3× deeper window than Adam's).
func (p *pipeline) planeDepth() int64 {
	depth := int64(4 * p.geo.Planes() / p.comps)
	if min := int64(4 * p.geo.Dies()); depth < min {
		depth = min
	}
	return depth
}

// gradArrivals posts the backward pass's gradient arrivals in one
// ScheduleBatch call: units are grouped into chunks of TransferChunkBytes
// of unitBytes each, and chunk k becomes available at its gradSchedule
// time. With a transfer verb the chunk's unitBytes-per-unit gradients then
// cross it before the chunk's future resolves; with nil they are already
// where the update runs and the future resolves on time. The fan-out is
// the largest single burst of same-time scheduling in a run (hundreds of
// chunks at paper scale), exactly the storm the engine's batch path
// amortizes into a single heapify.
func (p *pipeline) gradArrivals(unitBytes int64, transfer func(int64, func())) (perChunk int64, arrived []*future) {
	perChunk = p.cfg.TransferChunkBytes / unitBytes
	if perChunk < 1 {
		perChunk = 1
	}
	nChunks := (p.simUnits + perChunk - 1) / perChunk
	avail := gradSchedule(p.cfg, nChunks)
	arrived = make([]*future, nChunks)
	items := make([]sim.Timed, nChunks)
	for k := int64(0); k < nChunks; k++ {
		f := &future{}
		arrived[k] = f
		if transfer == nil {
			items[k] = sim.Timed{Delay: avail[k], Fn: f.resolve}
			continue
		}
		chunkUnits := perChunk
		if k == nChunks-1 {
			chunkUnits = p.simUnits - k*perChunk
		}
		bytes := chunkUnits * unitBytes
		items[k] = sim.Timed{Delay: avail[k], Fn: func() {
			transfer(bytes, span(p.eng, "grad-transfer", f.resolve))
		}}
	}
	p.eng.ScheduleBatch(items)
	return perChunk, arrived
}

// report assembles the run's report. The window's simulated time and
// device traffic are extrapolated linearly to the full model (the step is
// throughput-bound); the external traffic and update ops are the system's
// mandatory full-model traffic.
func (p *pipeline) report(s *eventSystem) *Report {
	cfg := p.cfg
	scale := cfg.ScaleFactor()
	counts := p.dev.Counts()
	pageSize := float64(p.geo.PageSize)
	a := traffic(s.key, cfg)
	r := &Report{
		System:              s.name,
		Model:               cfg.Model.Name,
		Optimizer:           cfg.Optimizer.String(),
		Precision:           cfg.Precision.String(),
		Params:              cfg.Model.Params,
		TotalUnits:          cfg.TouchedUnits(),
		SimUnits:            p.simUnits,
		SimTime:             p.endTime,
		SimEvents:           p.eng.Fired(),
		SimPCIeToDevBytes:   int64(p.link.BytesToDevice()),
		SimPCIeFromDevBytes: int64(p.link.BytesFromDevice()),
		OptStepTime:         p.endTime.Scale(scale),
		PCIeBytes:           int64(a.PCIeBytes),
		BusBytes:            int64(float64(counts.BytesIn+counts.BytesOut) * scale),
		NANDReadBytes:       int64(float64(counts.Reads) * pageSize * scale),
		NANDProgramBytes:    int64(float64(counts.Programs) * pageSize * scale),
		DRAMBytes:           int64(a.DRAMBytes),
		HBMBytes:            int64(a.HBMBytes),
		WAF:                 p.dev.Stats().WAF,
		LinkUtil:            p.link.Utilization(),
		BusUtil:             meanBusUtil(p.dev),
		Feasible:            true,
	}
	if p.fill != nil {
		p.fill(r)
	}
	a.NANDReadBytes = float64(r.NANDReadBytes)
	a.NANDProgramBytes = float64(r.NANDProgramBytes)
	a.NANDEraseBytes = float64(counts.Erases) * float64(cfg.SSD.Nand.BlockBytes()) * scale
	a.BusBytes = float64(r.BusBytes)
	evalEnergy(r, a)
	cfg.endToEnd(r)
	accountFaults(cfg, r, p.inj)
	return r
}
