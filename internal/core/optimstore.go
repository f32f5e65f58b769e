package core

import (
	"fmt"

	"repro/internal/odp"
	"repro/internal/sim"
)

// optimStore is the paper's system: gradients stream to the SSD, each NAND
// die's processing unit reads the co-located weight/state pages from its
// planes, executes the optimizer kernel, programs the updated pages back
// (log-structured, same plane), and returns working-precision weights.
// Only gradients and low-precision weights ever cross the channel bus and
// PCIe; the bulk read-modify-write runs at aggregate plane bandwidth.
func optimStore(p *pipeline) stage {
	cfg, eng, dev, geo, lay, comps := p.cfg, p.eng, p.dev, p.geo, p.lay, p.comps
	// One compute unit per die.
	units := make([][]*odp.Unit, cfg.SSD.Channels)
	for ch := range units {
		units[ch] = make([]*odp.Unit, cfg.SSD.DiesPerChannel)
		for die := range units[ch] {
			units[ch][die] = odp.NewUnit(eng, fmt.Sprintf("ch%d/die%d", ch, die), cfg.ODP)
		}
	}

	kernel := kernelFor(cfg)
	elems := cfg.ElemsPerPage()
	gradB := cfg.GradBytesPerUnit()
	woutB := cfg.WeightOutBytesPerUnit()
	pageSize := geo.PageSize

	// Inbound gradient stream: chunked PCIe transfers; units wait on their
	// chunk's arrival.
	unitsPerChunk, arrived := p.gradArrivals(gradB, p.link.ToDevice)

	st := stage{inflightCap: p.planeDepth(), outBytes: woutB}
	st.fill = func(r *Report) {
		var util float64
		for _, row := range units {
			for _, u := range row {
				util += u.Utilization()
			}
		}
		r.ODPUtil = util / float64(len(units)*len(units[0]))
	}
	st.start = func(u int64, unitDone func()) {
		place := lay.Placement(u)
		odpU := units[place.HomeChannel][place.HomeDie]

		readAll := func(done func()) {
			c := sim.NewCounter(comps, span(eng, "read", done))
			for comp := 0; comp < comps; comp++ {
				lpa := lay.LPA(u, comp)
				compPlane := place.Planes[comp]
				rch, rdie, _ := geo.PlaneLoc(compPlane)
				if rch == place.HomeChannel && rdie == place.HomeDie {
					dev.ReadMapped(lpa, c.Done)
					continue
				}
				// Mis-laid-out component: page must travel remote die →
				// controller → home die over the channel buses.
				sim.Chain(c.Done,
					func(next func()) { dev.ReadMapped(lpa, next) },
					func(next func()) { dev.TransferFromDie(rch, rdie, pageSize, next) },
					func(next func()) {
						dev.TransferToDie(place.HomeChannel, place.HomeDie, pageSize, next)
					},
				)
			}
		}
		// Phase 3: program updated pages (remote components travel back).
		programAll := func(done func()) {
			c := sim.NewCounter(comps, span(eng, "program", done))
			for comp := 0; comp < comps; comp++ {
				lpa := lay.LPA(u, comp)
				compPlane := place.Planes[comp]
				rch, rdie, _ := geo.PlaneLoc(compPlane)
				if rch == place.HomeChannel && rdie == place.HomeDie {
					dev.ProgramUpdate(lpa, c.Done)
					continue
				}
				sim.Chain(c.Done,
					func(next func()) {
						dev.TransferFromDie(place.HomeChannel, place.HomeDie, pageSize, next)
					},
					func(next func()) { dev.TransferToDie(rch, rdie, pageSize, next) },
					func(next func()) { dev.ProgramUpdate(lpa, next) },
				)
			}
		}

		finish := func() {
			dev.TransferFromDie(place.HomeChannel, place.HomeDie, int(woutB), span(eng, "writeback", unitDone))
		}

		// Phase 2: kernel execution, one or two passes.
		compute := func() {
			if cfg.ComputeHook != nil {
				cfg.ComputeHook(u)
			}
			if kernel.ReadPasses == 1 {
				odpU.Exec(elems, kernel.FlopsPerElem, span(eng, "kernel", func() { programAll(finish) }))
				return
			}
			// LAMB: pass 1 computes moments and norms; a trust-ratio
			// reduction bounces off the controller; pass 2 re-reads and
			// applies.
			half := (kernel.FlopsPerElem + 1) / 2
			sim.Chain(func() { programAll(finish) },
				func(next func()) { odpU.Exec(elems, half, span(eng, "kernel", next)) },
				func(next func()) {
					next = span(eng, "lamb-reduce", next)
					dev.TransferFromDie(place.HomeChannel, place.HomeDie, 64, func() {
						dev.TransferToDie(place.HomeChannel, place.HomeDie, 64, next)
					})
				},
				func(next func()) { readAll(next) },
				func(next func()) { odpU.Exec(elems, kernel.FlopsPerElem-half, span(eng, "kernel", next)) },
			)
		}

		// Phase 1: gradient at die + resident pages in page registers.
		join := sim.NewCounter(2, compute)
		arrived[u/unitsPerChunk].then(func() {
			dev.TransferToDie(place.HomeChannel, place.HomeDie, int(gradB), join.Done)
		})
		readAll(join.Done)
	}
	return st
}
