package core

import (
	"repro/internal/host"
)

// ctrlISP is the in-SSD-controller processing baseline: state pages leave
// the dies over the channel buses into controller DRAM, a few embedded
// cores run the optimizer kernel, and updated pages travel back to be
// programmed. It avoids PCIe for the bulk state but pays full channel-bus
// traffic and is throttled by the controller's weak memory system — the
// middle design point between host offload and on-die processing.
type ctrlISP struct {
	p             *pipeline
	ctrl          *host.CPU
	flops         float64 // kernel work per unit
	dramB         float64 // controller DRAM traffic per unit
	unitsPerChunk int64
	arrived       []*future
}

// ctrlISP's unit-level steps.
const (
	ciGradArrived step = iota // gradient chunk in controller DRAM
	ciKernel                  // every page pulled: run the controller kernel
	ciKernelDone              // push the updated pages back
	ciPushed                  // every page programmed
)

// ctrlISP's component steps: pull a page to the controller, push it back.
const (
	ciPull     step = iota // array read done: transfer out of the die
	ciPulled               // page in controller DRAM
	ciProgram              // updated page at its die: program it
	ciCompDone             // programmed
)

func newCtrlISP(p *pipeline) stage {
	cfg := p.cfg
	residentB, gradB, woutB := cfg.ResidentBytesPerUnit(), cfg.GradBytesPerUnit(), cfg.WeightOutBytesPerUnit()
	c := &ctrlISP{
		p:     p,
		ctrl:  host.NewCPU(p.eng, cfg.CtrlCPU),
		flops: float64(cfg.ElemsPerPage()) * float64(kernelFor(cfg).FlopsPerElem),
		dramB: float64(2*residentB + gradB + woutB),
	}
	// Inbound gradients over PCIe, chunked.
	c.unitsPerChunk, c.arrived = p.gradArrivals(gradB, p.link.ToDevice)
	return stage{inflightCap: p.planeDepth(), outBytes: woutB, flow: c}
}

// begin is phase 1: the gradient arrives while every page is pulled to
// the controller (array read, then bus transfer out of each component's
// die).
func (ci *ctrlISP) begin(u *unit) {
	u.beginSpan()
	u.join = 1 + len(u.comps)
	ci.arrived[u.id/ci.unitsPerChunk].then(u.at(ciGradArrived))
	for i := range u.comps {
		c := &u.comps[i]
		ci.p.dev.ReadMapped(c.lpa, c.at(ciPull))
	}
}

func (ci *ctrlISP) unitStep(u *unit, s step) {
	switch s {
	case ciGradArrived:
		u.joined(ciKernel)
	case ciKernel:
		// Phase 2: controller kernel over this unit's elements.
		u.endSpan("read-pull")
		u.beginSpan()
		ci.ctrl.Run(ci.flops, ci.dramB, u.at(ciKernelDone))
	case ciKernelDone:
		// Phase 3: push updated pages back and program them.
		u.endSpan("ctrl-kernel")
		u.fanOut(ciPushed)
		for i := range u.comps {
			c := &u.comps[i]
			ci.p.dev.TransferToDie(c.ch, c.die, ci.p.geo.PageSize, c.at(ciProgram))
		}
	case ciPushed:
		u.endSpan("program-push")
		u.finish()
	}
}

func (ci *ctrlISP) compStep(c *comp) {
	switch c.step {
	case ciPull:
		ci.p.dev.TransferFromDie(c.ch, c.die, ci.p.geo.PageSize, c.at(ciPulled))
	case ciPulled:
		c.u.joined(ciKernel)
	case ciProgram:
		ci.p.dev.ProgramUpdate(c.lpa, c.at(ciCompDone))
	case ciCompDone:
		c.u.compDone()
	}
}
