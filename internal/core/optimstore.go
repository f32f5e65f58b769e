package core

import (
	"fmt"

	"repro/internal/odp"
	"repro/internal/optim"
)

// optimStore is the paper's system: gradients stream to the SSD, each NAND
// die's processing unit reads the co-located weight/state pages from its
// planes, executes the optimizer kernel, programs the updated pages back
// (log-structured, same plane), and returns working-precision weights.
// Only gradients and low-precision weights ever cross the channel bus and
// PCIe; the bulk read-modify-write runs at aggregate plane bandwidth.
type optimStore struct {
	p      *pipeline
	units  [][]*odp.Unit // one compute unit per die
	kernel optim.Kernel
	elems  int
	gradB  int64
	woutB  int64

	unitsPerChunk int64
	arrived       []*future
}

// optimStore's unit-level steps, in dataflow order.
const (
	osGradArrived   step = iota // gradient chunk on the device: move it to the die
	osGradDelivered             // gradient in the die's buffer
	osReadDone                  // resident pages in the page registers
	osCompute                   // both joined: run the kernel
	osKernelDone                // (last) kernel pass done: program
	osPass1Done                 // LAMB pass 1 done: bounce the trust ratio
	osBounceOut                 // trust-ratio partials at the controller
	osBounced                   // trust ratio back at the die: re-read
	osRereadDone                // LAMB pass 2 reads done: run pass 2
	osProgramDone               // updated pages programmed: return weights
	osWrittenBack               // weights at the controller
)

// optimStore's component steps: an array op on the home die, or a
// mis-laid (remote-die) component's trip over the channel buses.
const (
	osCompDone   step = iota // chain complete
	osReadFrom               // remote page read: carry it to the controller
	osReadTo                 // at the controller: on to the home die
	osProgramTo              // updated page at the controller: on to its die
	osProgramRem             // at its die: program it
)

func newOptimStore(p *pipeline) stage {
	cfg := p.cfg
	o := &optimStore{
		p:      p,
		units:  make([][]*odp.Unit, cfg.SSD.Channels),
		kernel: kernelFor(cfg),
		elems:  cfg.ElemsPerPage(),
		gradB:  cfg.GradBytesPerUnit(),
		woutB:  cfg.WeightOutBytesPerUnit(),
	}
	for ch := range o.units {
		o.units[ch] = make([]*odp.Unit, cfg.SSD.DiesPerChannel)
		for die := range o.units[ch] {
			o.units[ch][die] = odp.NewUnit(p.eng, fmt.Sprintf("ch%d/die%d", ch, die), cfg.ODP)
		}
	}
	// Inbound gradient stream: chunked PCIe transfers; units wait on their
	// chunk's arrival.
	o.unitsPerChunk, o.arrived = p.gradArrivals(o.gradB, p.link.ToDevice)
	return stage{inflightCap: p.planeDepth(), outBytes: o.woutB, flow: o, fill: o.fill}
}

func (o *optimStore) fill(r *Report) {
	var util float64
	for _, row := range o.units {
		for _, u := range row {
			util += u.Utilization()
		}
	}
	r.ODPUtil = util / float64(len(o.units)*len(o.units[0]))
}

// begin is phase 1: the gradient reaches the die while the resident pages
// are read into the page registers.
func (o *optimStore) begin(u *unit) {
	u.join = 2
	o.arrived[u.id/o.unitsPerChunk].then(u.at(osGradArrived))
	o.readAll(u, osReadDone)
}

// readAll reads every component into the home die's page registers.
func (o *optimStore) readAll(u *unit, after step) {
	u.fanOut(after)
	for i := range u.comps {
		c := &u.comps[i]
		if c.local() {
			o.p.dev.ReadMapped(c.lpa, c.at(osCompDone))
			continue
		}
		// Mis-laid-out component: page must travel remote die →
		// controller → home die over the channel buses.
		o.p.dev.ReadMapped(c.lpa, c.at(osReadFrom))
	}
}

// programAll is phase 3: program the updated pages (remote components
// travel back first).
func (o *optimStore) programAll(u *unit) {
	u.fanOut(osProgramDone)
	h := u.home()
	for i := range u.comps {
		c := &u.comps[i]
		if c.local() {
			o.p.dev.ProgramUpdate(c.lpa, c.at(osCompDone))
			continue
		}
		o.p.dev.TransferFromDie(h.ch, h.die, o.p.geo.PageSize, c.at(osProgramTo))
	}
}

func (o *optimStore) unitStep(u *unit, s step) {
	dev, h := o.p.dev, u.home()
	switch s {
	case osGradArrived:
		dev.TransferToDie(h.ch, h.die, int(o.gradB), u.at(osGradDelivered))
	case osGradDelivered:
		u.joined(osCompute)
	case osReadDone:
		u.endSpan("read")
		u.joined(osCompute)
	case osCompute:
		// Phase 2: kernel execution, one or two passes.
		if hook := o.p.cfg.ComputeHook; hook != nil {
			hook(u.id)
		}
		u.beginSpan()
		if o.kernel.ReadPasses == 1 {
			o.units[h.ch][h.die].Exec(o.elems, o.kernel.FlopsPerElem, u.at(osKernelDone))
			return
		}
		// LAMB: pass 1 computes moments and norms; a trust-ratio
		// reduction bounces off the controller; pass 2 re-reads and
		// applies.
		o.units[h.ch][h.die].Exec(o.elems, (o.kernel.FlopsPerElem+1)/2, u.at(osPass1Done))
	case osPass1Done:
		u.endSpan("kernel")
		u.beginSpan()
		dev.TransferFromDie(h.ch, h.die, 64, u.at(osBounceOut))
	case osBounceOut:
		dev.TransferToDie(h.ch, h.die, 64, u.at(osBounced))
	case osBounced:
		u.endSpan("lamb-reduce")
		o.readAll(u, osRereadDone)
	case osRereadDone:
		u.endSpan("read")
		u.beginSpan()
		o.units[h.ch][h.die].Exec(o.elems, o.kernel.FlopsPerElem-(o.kernel.FlopsPerElem+1)/2, u.at(osKernelDone))
	case osKernelDone:
		u.endSpan("kernel")
		o.programAll(u)
	case osProgramDone:
		u.endSpan("program")
		u.beginSpan()
		dev.TransferFromDie(h.ch, h.die, int(o.woutB), u.at(osWrittenBack))
	case osWrittenBack:
		u.endSpan("writeback")
		u.finish()
	}
}

func (o *optimStore) compStep(c *comp) {
	dev, h, pageSize := o.p.dev, c.u.home(), o.p.geo.PageSize
	switch c.step {
	case osCompDone:
		c.u.compDone()
	case osReadFrom:
		dev.TransferFromDie(c.ch, c.die, pageSize, c.at(osReadTo))
	case osReadTo:
		dev.TransferToDie(h.ch, h.die, pageSize, c.at(osCompDone))
	case osProgramTo:
		dev.TransferToDie(c.ch, c.die, pageSize, c.at(osProgramRem))
	case osProgramRem:
		dev.ProgramUpdate(c.lpa, c.at(osCompDone))
	}
}
