package ssd

import "repro/internal/nand"

// Garbage collection. Each plane collects independently: when its free-
// block count reaches the low watermark, the device greedily picks the
// full block with the fewest valid pages, relocates those pages within the
// plane via copyback (array read + array program, no channel-bus traffic),
// erases the victim, and repeats until the high watermark is restored.
//
// Relocation competes with host and update traffic for plane time, which
// is exactly the interference the F11 experiment measures.

func (d *Device) maybeGC(plane int) {
	if d.gcActive[plane] {
		return
	}
	if d.ftl.FreeBlocks(plane) > d.cfg.GCLowWater && len(d.pending[plane]) == 0 {
		return
	}
	d.gcActive[plane] = true
	d.opStart()
	d.gcStep(plane)
}

func (d *Device) gcStep(plane int) {
	// Collect until the high watermark is restored AND no writer is starved
	// for space.
	if d.ftl.FreeBlocks(plane) >= d.cfg.GCHighWater && len(d.pending[plane]) == 0 {
		d.gcFinish(plane)
		return
	}
	victim, ok := d.ftl.PickVictim(plane)
	if !ok {
		// Nothing reclaimable right now. With programs still in flight on
		// the plane that is transient — each completion commits a mapping
		// and re-triggers maybeGC, so progress resumes. With none, pending
		// writers can never be satisfied: a genuine wedge.
		if len(d.pending[plane]) > 0 && d.ftl.FreeBlocks(plane) == 0 &&
			d.ftl.InflightPrograms(plane) == 0 {
			panic("ssd: plane wedged: writers pending but nothing reclaimable " +
				"(logical load exceeds physical capacity)")
		}
		d.gcFinish(plane)
		return
	}
	d.relocate(plane, victim, func() { d.eraseVictim(plane, victim) })
}

// relocate moves a block's valid pages within its plane, one at a time
// in page order, then calls then (GC erases the victim; retirement seals
// the block). One pageOp record carries the whole block. Relocation
// commits at program completion like every other write: if an update or
// trim supersedes the page while the copyback program is in flight, the
// commit is skipped and the target page becomes dead garbage (counted in
// GCStalePrograms) — committing anyway would resurrect trimmed data or
// roll an update back.
func (d *Device) relocate(plane, victim int, then func()) {
	ch, die, pl := d.geo.PlaneLoc(plane)
	first := d.geo.Linear(PPA{Channel: ch, Die: die, Addr: nand.Addr{Plane: pl, Block: victim}})
	op := d.getOp(opRelocate, -1, then)
	op.plane, op.src, op.srcEnd = plane, first-1, first+int64(d.geo.PagesPerBlock)
	d.relocateNext(op)
}

// relocateNext reads the block's next page still mapped (pages trimmed or
// rewritten meanwhile are skipped); with none left it retires the record
// and calls then.
func (d *Device) relocateNext(op *pageOp) {
	for op.src++; op.src < op.srcEnd; op.src++ {
		if op.lpa = d.ftl.reverse(op.src); op.lpa != unmapped {
			src := d.geo.FromLinear(op.src)
			d.Die(src.Channel, src.Die).Read(src.Addr, op.at(stageCopyRead))
			return
		}
	}
	then := op.done
	d.putOp(op)
	then()
}

// relocateRead programs the copy of a page whose array read completed,
// unless the mapping moved while the read was queued.
func (d *Device) relocateRead(op *pageOp) {
	if d.ftl.l2p.get(op.lpa) != op.src {
		d.relocateNext(op)
		return
	}
	stream := HotStream
	if d.cfg.HotColdSeparation {
		stream = ColdStream
	}
	op.ppa = d.ftl.AllocPageStream(op.plane, stream)
	d.ftl.BeginProgram(op.ppa)
	d.Die(op.ppa.Channel, op.ppa.Die).Program(op.ppa.Addr, op.at(stageCopied))
}

// relocateProgrammed commits a completed copy (or counts it stale) and
// moves on to the next page.
func (d *Device) relocateProgrammed(op *pageOp) {
	d.ftl.EndProgram(op.ppa)
	if d.ftl.l2p.get(op.lpa) == op.src {
		d.commit(op.lpa, op.ppa, true)
		d.gcRelocations++
		d.boundary(BoundaryGC, op.lpa)
	} else {
		d.gcStale++
		d.boundary(BoundaryGCStale, op.lpa)
	}
	d.relocateNext(op)
}

func (d *Device) eraseVictim(plane, victim int) {
	ch, dieIdx, pl := d.geo.PlaneLoc(plane)
	die := d.Die(ch, dieIdx)
	die.Erase(nand.Addr{Plane: pl, Block: victim}, func() {
		d.ftl.OnErased(plane, victim)
		d.gcErases++
		d.boundary(BoundaryErase, -1)
		d.drainPending(plane)
		d.gcStep(plane)
	})
}

func (d *Device) gcFinish(plane int) {
	d.gcActive[plane] = false
	d.drainPending(plane)
	d.opDone()
	// Writers still queued here are waiting for in-flight programs to fill
	// blocks; each program completion calls maybeGC again, so progress
	// resumes without a synchronous restart (which could spin).
}
