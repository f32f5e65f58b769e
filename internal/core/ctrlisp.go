package core

import (
	"repro/internal/host"
	"repro/internal/sim"
)

// ctrlISP is the in-SSD-controller processing baseline: state pages leave
// the dies over the channel buses into controller DRAM, a few embedded
// cores run the optimizer kernel, and updated pages travel back to be
// programmed. It avoids PCIe for the bulk state but pays full channel-bus
// traffic and is throttled by the controller's weak memory system — the
// middle design point between host offload and on-die processing.
func ctrlISP(p *pipeline) stage {
	cfg, eng, dev, geo, lay, comps := p.cfg, p.eng, p.dev, p.geo, p.lay, p.comps
	ctrl := host.NewCPU(eng, cfg.CtrlCPU)
	elems := cfg.ElemsPerPage()
	residentB := cfg.ResidentBytesPerUnit()
	gradB := cfg.GradBytesPerUnit()
	woutB := cfg.WeightOutBytesPerUnit()
	kernel := kernelFor(cfg).FlopsPerElem
	pageSize := geo.PageSize

	// Inbound gradients over PCIe, chunked.
	unitsPerChunk, arrived := p.gradArrivals(gradB, p.link.ToDevice)

	st := stage{inflightCap: p.planeDepth(), outBytes: woutB}
	st.start = func(u int64, unitDone func()) {
		place := lay.Placement(u)
		// Phase 1: gradient available + all pages pulled to the controller
		// (array read, then bus transfer out of each component's die).
		join := sim.NewCounter(1+comps, span(eng, "read-pull", func() {
			// Phase 2: controller kernel over this unit's elements.
			dramBytes := float64(2*residentB + gradB + woutB)
			ctrl.Run(float64(elems)*float64(kernel), dramBytes, span(eng, "ctrl-kernel", func() {
				// Phase 3: push updated pages back and program them.
				c := sim.NewCounter(comps, span(eng, "program-push", unitDone))
				for comp := 0; comp < comps; comp++ {
					lpa := lay.LPA(u, comp)
					wch, wdie, _ := geo.PlaneLoc(place.Planes[comp])
					sim.Chain(c.Done,
						func(nx func()) { dev.TransferToDie(wch, wdie, pageSize, nx) },
						func(nx func()) { dev.ProgramUpdate(lpa, nx) },
					)
				}
			}))
		}))
		arrived[u/unitsPerChunk].then(join.Done)
		for comp := 0; comp < comps; comp++ {
			lpa := lay.LPA(u, comp)
			rch, rdie, _ := geo.PlaneLoc(place.Planes[comp])
			sim.Chain(join.Done,
				func(nx func()) { dev.ReadMapped(lpa, nx) },
				func(nx func()) { dev.TransferFromDie(rch, rdie, pageSize, nx) },
			)
		}
	}
	return st
}
