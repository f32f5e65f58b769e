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
// returned per unit and compute utilisation) and its traffic entry. Each
// admitted unit runs on a pooled unit record.
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
	freeUnits       *unit
	next, completed int64
	endTime         sim.Time
	finished        bool
}

// stage is what one event-driven system plugs into the pipeline.
type stage struct {
	// inflightCap bounds the units admitted but not yet complete.
	inflightCap int64
	// flow drives each admitted unit's record; the unit's finish must run
	// once its dataflow completes.
	flow dataflow
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
		u := p.getUnit(p.next, p.done)
		p.next++
		p.flow.begin(u)
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

// step names what a unit record runs next. Each system numbers its own
// steps; the record only carries them.
type step uint8

// dataflow is one system's per-unit dataflow, written as a step switch
// over pooled unit records instead of a closure per phase.
type dataflow interface {
	// begin issues a newly admitted unit's first phase.
	begin(u *unit)
	// unitStep runs step s of u: a unit-level callback fired, a join
	// completed or a fan-out over the components completed.
	unitStep(u *unit, s step)
	// compStep runs the pending step of one component's chain.
	compStep(c *comp)
}

// unit is the record of one in-flight update unit. Its callbacks are
// method values bound once when the record is created: next fires the
// unit-level step in step, and each component slot has its own next for
// its own chain, so the phases of a unit (a join of concurrent branches,
// then a fan-out over its components, then single transfers) allocate
// nothing. Records recycle through the pipeline's freelist; at most
// inflightCap are live.
//
//simlint:pooled
type unit struct {
	p        *pipeline
	id       int64
	done     func()
	join     int      // branches of the current join still outstanding
	pending  int      // component chains of the current fan-out still outstanding
	spanAt   sim.Time // start of the current phase span
	step     step     // the step next runs
	after    step     // the step that runs when the fan-out completes
	next     func()
	comps    []comp
	nextFree *unit
}

// comp is a unit record's slot for one resident component page: its
// logical page, the channel and die its plane sits on, and the step its
// chain runs next.
type comp struct {
	u       *unit
	lpa     int64
	ch, die int
	step    step
	next    func()
}

// getUnit takes a record from the freelist (allocating one while the
// freelist warms up) and places unit id's components.
//
//simlint:hotpath
func (p *pipeline) getUnit(id int64, done func()) *unit {
	u := p.freeUnits
	if u != nil {
		p.freeUnits = u.nextFree
	} else {
		//simlint:allow hotalloc pool growth: one-time allocation while the freelist warms up
		u = &unit{p: p, comps: make([]comp, p.comps)}
		u.next = u.fire
		for i := range u.comps {
			c := &u.comps[i]
			c.u = u
			c.next = c.fire
		}
	}
	u.id = id
	u.done = done
	for i := range u.comps {
		c := &u.comps[i]
		c.lpa = p.lay.LPA(id, i)
		c.ch, c.die, _ = p.geo.PlaneLoc(p.lay.PlaneIdx(id, i))
	}
	return u
}

// putUnit returns a finished record to the freelist, dropping the
// caller's callback so the pool never pins it.
//
//simlint:hotpath
//simlint:release
func (p *pipeline) putUnit(u *unit) {
	u.done = nil
	u.nextFree = p.freeUnits
	p.freeUnits = u
}

// at sets the unit-level step and returns the record's callback.
//
//simlint:hotpath
func (u *unit) at(s step) func() {
	u.step = s
	return u.next
}

// at sets the component's step and returns its callback.
//
//simlint:hotpath
func (c *comp) at(s step) func() {
	c.step = s
	return c.next
}

func (u *unit) fire() { u.p.flow.unitStep(u, u.step) }

func (c *comp) fire() { c.u.p.flow.compStep(c) }

// home is the component on the die the unit's kernel runs on.
func (u *unit) home() *comp { return &u.comps[0] }

// local reports whether the component sits on the unit's home die.
func (c *comp) local() bool {
	h := c.u.home()
	return c.ch == h.ch && c.die == h.die
}

// beginSpan starts a phase span now.
func (u *unit) beginSpan() { u.spanAt = u.p.eng.Now() }

// endSpan records the phase span begun at spanAt, when tracing. Call it
// first in the step that ends the phase, so the span is emitted before
// anything the next phase does.
func (u *unit) endSpan(name string) {
	if tr := u.p.eng.Tracer(); tr != nil {
		tr.Span(phaseTrack, name, u.spanAt, u.p.eng.Now())
	}
}

// fanOut opens a phase span over every component; step after runs once
// each component's chain has called compDone.
func (u *unit) fanOut(after step) {
	u.beginSpan()
	u.pending = len(u.comps)
	u.after = after
}

// compDone retires one component chain of the current fan-out.
func (u *unit) compDone() {
	u.pending--
	if u.pending == 0 {
		u.p.flow.unitStep(u, u.after)
	}
}

// joined retires one branch of the current join; step then runs once
// every branch has.
func (u *unit) joined(then step) {
	u.join--
	if u.join == 0 {
		u.p.flow.unitStep(u, then)
	}
}

// finish retires the unit: the record returns to the pool, then the
// caller's done runs (and may admit a unit onto the same record).
func (u *unit) finish() {
	done := u.done
	u.p.putUnit(u)
	done()
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
