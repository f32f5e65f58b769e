package core

import (
	"repro/internal/host"
	"repro/internal/sim"
)

// offload is the host-offload family of baselines: optimizer state lives
// on the SSD, but every step the full resident state is read out over the
// channel buses and PCIe, updated off the device, and written back. The
// external traffic per parameter is twice the resident footprint, so
// every row shares one roofline shape and differs only in how close its
// pipeline gets to it. Each field is one design choice:
//
//   - cpu: update on the host CPU through DRAM instead of on the GPU
//     through HBM (where the gradients already are).
//   - stream: subgroup transfers ride a standing descriptor ring, so
//     segments pay wire occupancy without per-DMA setup, instead of
//     chunked transfers that each pay it.
//   - subgroups: state is partitioned into K subgroups
//     (Config.InterleaveDepth) whose phases interleave — while subgroup i
//     updates, i+1 prefetches and i−1 writes back — so host staging holds
//     only ~3/K of the state, at the cost of a pipeline at most three
//     subgroups deep; otherwise admission follows plane depth.
//
// The rows are "hostoffload", the ZeRO-Infinity-style GPU update, and
// "interleaved", the Deep-Optimizer-States-style CPU update (Maurya et
// al.) that sets all three.
type offload struct {
	cpu, stream, subgroups bool
}

// updater is the update engine a batch runs on: host.GPU or host.CPU.
type updater interface {
	Run(flops, bytes float64, done func())
}

// offloadFlow is one run of an offload row. Units whose reads finished
// wait in batch for a PCIe + update + PCIe round trip, then write back.
type offloadFlow struct {
	p                  *pipeline
	upd                updater
	fromDev, toDev     func(int64, func())
	readSpan, updSpan  string
	residentB, updateB int64
	elems, kernel      int

	perBatch     int64
	gradReady    []*future
	batch        []*unit
	readsArrived int64
	freeBatches  *batchRec
}

// batchRec is the pooled record of one flushed batch's round trip; next
// is its fire method, bound once.
//
//simlint:pooled
type batchRec struct {
	f        *offloadFlow
	units    []*unit
	grads    *future
	step     step
	spanAt   sim.Time
	next     func()
	nextFree *batchRec
}

// The offload rows' unit-level steps.
const (
	ofReadDone    step = iota // every component read out of the device
	ofWrittenBack             // every component written back
)

// A batch's steps, in round-trip order.
const (
	ofFromDev step = iota // state on the host: wait for the gradients
	ofGrads               // gradients ready: run the update
	ofUpdated             // updated: send the state back
	ofToDev               // back on the device: write each unit back
)

func (o offload) flow(p *pipeline) stage {
	cfg := p.cfg
	residentB := cfg.ResidentBytesPerUnit()
	f := &offloadFlow{
		p:         p,
		fromDev:   p.link.FromDevice,
		toDev:     p.link.ToDevice,
		readSpan:  "read",
		updSpan:   "gpu-batch",
		residentB: residentB,
		// Memory traffic per unit on the update engine: state read+written,
		// gradient read, weights out.
		updateB: 2*residentB + cfg.GradBytesPerUnit() + cfg.WeightOutBytesPerUnit(),
		elems:   cfg.ElemsPerPage(),
		kernel:  kernelFor(cfg).FlopsPerElem,
	}
	st := stage{flow: f}
	if o.cpu {
		f.upd, f.updSpan = host.NewCPU(p.eng, cfg.HostCPU), "cpu-batch"
	} else {
		gpu := host.NewGPU(p.eng, cfg.GPU)
		f.upd = gpu
		st.fill = func(r *Report) { r.GPUUtil = gpu.Utilization() }
	}
	if o.stream {
		f.fromDev, f.toDev = p.link.StreamFromDevice, p.link.StreamToDevice
	}
	if o.subgroups {
		// Only three subgroups may be host-resident at once (the one
		// updating, the one prefetching, the one writing back).
		f.readSpan = "prefetch"
		subgroup := (p.simUnits + int64(cfg.Depth()) - 1) / int64(cfg.Depth())
		st.inflightCap = 3 * subgroup
		if st.inflightCap < 4 {
			st.inflightCap = 4 // a degenerate partition still pipelines minimally
		}
	} else {
		st.inflightCap = p.planeDepth()
	}

	// The update engine batches several units per kernel launch, as a
	// fused GPU kernel or a blocked AVX loop would. A batch's kernel needs
	// its gradients, which the backward pass produces over time into the
	// engine's memory: availability needs no transfer, just timed
	// resolution. (State reads are gradient-independent and overlap
	// freely.)
	f.perBatch, f.gradReady = p.gradArrivals(residentB, nil)
	return st
}

func (f *offloadFlow) begin(u *unit) {
	u.fanOut(ofReadDone)
	for i := range u.comps {
		c := &u.comps[i]
		f.p.dev.Read(c.lpa, c.next)
	}
}

func (f *offloadFlow) unitStep(u *unit, s step) {
	switch s {
	case ofReadDone:
		u.endSpan(f.readSpan)
		f.batch = append(f.batch, u)
		f.readsArrived++
		// Flush full batches; also flush when no reads remain
		// outstanding — a narrow admission window may never fill a
		// batch, and at the tail no further arrivals can complete one.
		if int64(len(f.batch)) >= f.perBatch || f.readsArrived == f.p.next {
			f.flush()
		}
	case ofWrittenBack:
		u.endSpan("writeback")
		u.finish()
	}
}

// compStep retires a component: an offload row's only component step is
// its page's read or write completing.
func (f *offloadFlow) compStep(c *comp) { c.u.compDone() }

// flush sends the waiting units on their round trip as one batch.
func (f *offloadFlow) flush() {
	if len(f.batch) == 0 {
		return
	}
	b := f.getBatch()
	b.units, f.batch = f.batch, b.units[:0]
	newest := b.units[0].id
	for _, u := range b.units {
		if u.id > newest {
			newest = u.id
		}
	}
	b.grads = f.gradReady[newest/f.perBatch]
	f.fromDev(int64(len(b.units))*f.residentB, b.at(ofFromDev))
}

func (b *batchRec) fire() {
	f := b.f
	n := int64(len(b.units))
	switch b.step {
	case ofFromDev:
		b.grads.then(b.at(ofGrads))
	case ofGrads:
		b.spanAt = f.p.eng.Now()
		f.upd.Run(float64(n)*float64(f.elems)*float64(f.kernel), float64(n*f.updateB), b.at(ofUpdated))
	case ofUpdated:
		if tr := f.p.eng.Tracer(); tr != nil {
			tr.Span(phaseTrack, f.updSpan, b.spanAt, f.p.eng.Now())
		}
		f.toDev(n*f.residentB, b.at(ofToDev))
	case ofToDev:
		for _, u := range b.units {
			u.fanOut(ofWrittenBack)
			for i := range u.comps {
				c := &u.comps[i]
				f.p.dev.Write(c.lpa, c.next)
			}
		}
		f.putBatch(b)
	}
}

// getBatch takes a batch record from the freelist, allocating one while
// the freelist warms up.
//
//simlint:hotpath
func (f *offloadFlow) getBatch() *batchRec {
	if b := f.freeBatches; b != nil {
		f.freeBatches = b.nextFree
		return b
	}
	//simlint:allow hotalloc pool growth: one-time allocation while the freelist warms up
	b := &batchRec{f: f}
	b.next = b.fire
	return b
}

// putBatch returns a finished batch record to the freelist; its unit
// slice is kept for the next batch.
//
//simlint:hotpath
//simlint:release
func (f *offloadFlow) putBatch(b *batchRec) {
	clear(b.units)
	b.units = b.units[:0]
	b.grads = nil
	b.nextFree = f.freeBatches
	f.freeBatches = b
}

// at sets the batch's step and returns its callback.
//
//simlint:hotpath
func (b *batchRec) at(s step) func() {
	b.step = s
	return b.next
}
