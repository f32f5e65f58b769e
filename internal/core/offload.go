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

func (o offload) flow(p *pipeline) stage {
	cfg, eng, dev, lay, comps := p.cfg, p.eng, p.dev, p.lay, p.comps
	residentB := cfg.ResidentBytesPerUnit()
	// Memory traffic per unit on the update engine: state read+written,
	// gradient read, weights out.
	updateB := 2*residentB + cfg.GradBytesPerUnit() + cfg.WeightOutBytesPerUnit()
	elems, kernel := cfg.ElemsPerPage(), kernelFor(cfg).FlopsPerElem

	var upd updater
	var st stage
	readSpan, updSpan := "read", "gpu-batch"
	if o.cpu {
		upd, updSpan = host.NewCPU(eng, cfg.HostCPU), "cpu-batch"
	} else {
		gpu := host.NewGPU(eng, cfg.GPU)
		upd = gpu
		st.fill = func(r *Report) { r.GPUUtil = gpu.Utilization() }
	}
	fromDev, toDev := p.link.FromDevice, p.link.ToDevice
	if o.stream {
		fromDev, toDev = p.link.StreamFromDevice, p.link.StreamToDevice
	}
	if o.subgroups {
		// Only three subgroups may be host-resident at once (the one
		// updating, the one prefetching, the one writing back).
		readSpan = "prefetch"
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
	perBatch, gradReady := p.gradArrivals(residentB, nil)

	// Units whose reads finished wait here for a PCIe + update + PCIe
	// round trip, then write back.
	var batch []int64
	flush := func(done func()) {
		if len(batch) == 0 {
			return
		}
		ids := batch
		batch = nil
		n := int64(len(ids))
		newest := ids[0]
		for _, u := range ids {
			if u > newest {
				newest = u
			}
		}
		grads := gradReady[newest/perBatch]
		sim.Chain(nil,
			func(nx func()) { fromDev(n*residentB, nx) },
			func(nx func()) { grads.then(nx) },
			func(nx func()) {
				upd.Run(float64(n)*float64(elems)*float64(kernel), float64(n*updateB), span(eng, updSpan, nx))
			},
			func(nx func()) { toDev(n*residentB, nx) },
			func(nx func()) {
				for _, u := range ids {
					c := sim.NewCounter(comps, span(eng, "writeback", done))
					for comp := 0; comp < comps; comp++ {
						dev.Write(lay.LPA(u, comp), c.Done)
					}
				}
				nx()
			},
		)
	}

	var readsArrived int64
	st.start = func(u int64, done func()) {
		c := sim.NewCounter(comps, span(eng, readSpan, func() {
			batch = append(batch, u)
			readsArrived++
			// Flush full batches; also flush when no reads remain
			// outstanding — a narrow admission window may never fill a
			// batch, and at the tail no further arrivals can complete one.
			if int64(len(batch)) >= perBatch || readsArrived == p.next {
				flush(done)
			}
		}))
		for comp := 0; comp < comps; comp++ {
			dev.Read(lay.LPA(u, comp), c.Done)
		}
	}
	return st
}
