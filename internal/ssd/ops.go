package ssd

import "fmt"

// opKind names the device operation a pageOp record carries.
type opKind uint8

const (
	opHostRead     opKind = iota // Read: command, DRAM or array read, bus out
	opHostWrite                  // Write: command, cache slot, DRAM, flush to NAND
	opInternalRead               // ReadMapped, ScrubRead: array read only
	opUpdate                     // ProgramUpdate: array program only
	opTransfer                   // TransferToDie/TransferFromDie: bus only
	opRelocate                   // GC or retirement: copy a block's valid pages
)

// opStage names the step a pageOp runs when its pending callback fires.
type opStage uint8

const (
	stageCommand     opStage = iota // NVMe command overhead elapsed
	stageCacheHit                   // a host read was served from DRAM
	stageAbsorbed                   // a host write landed in DRAM
	stageFlush                      // a host write has plane headroom: bus in
	stageProgram                    // allocate the page and program it
	stageProgrammed                 // program complete: commit the mapping
	stageArrayRead                  // array read complete
	stageRetried                    // read-retry pass complete: read again
	stageTransferred                // bus transfer complete
	stageCopyRead                   // relocation: array read of src complete
	stageCopied                     // relocation: program of the copy complete
)

// pageOp is one in-flight device operation. Its steps run as callbacks of
// the engine, the NAND resources and the cache pool; instead of a closure
// per step, the record names its next step in stage and hands out next,
// the method value of advance bound once when the record was created.
// Records recycle through the device's freelist, so a steady-state page
// operation allocates nothing. An operation has at most one callback
// pending at a time, which is what lets one bound callback serve every
// step.
//
// The record's bookkeeping (getOp, putOp, at, grant, finish) is annotated
// hot path. The steps themselves are not roots: they reach the FTL's map
// growth, garbage collection and block retirement, whose allocations are
// amortized or rare. TestReadMappedAllocatesNothing pins the warmed
// internal read path at zero allocations instead.
//
//simlint:pooled
type pageOp struct {
	d       *Device
	kind    opKind
	stage   opStage
	retries int32
	lpa     int64
	ppa     PPA
	plane   int
	done    func()
	release func() // host write: the cache slot, held until the program commits

	// Relocation: the linear page being moved (ppa is its copy) and the
	// end of its block's pages.
	src, srcEnd int64

	// next is advance and granted is grant, bound once per record.
	next     func()
	granted  func(release func())
	nextFree *pageOp
}

// getOp takes an operation record from the freelist (or allocates one
// while the freelist warms up) and initialises it.
//
//simlint:hotpath
func (d *Device) getOp(kind opKind, lpa int64, done func()) *pageOp {
	op := d.freeOps
	if op != nil {
		d.freeOps = op.nextFree
	} else {
		//simlint:allow hotalloc pool growth: one-time allocation while the freelist warms up
		op = &pageOp{d: d}
		op.next = op.advance
		op.granted = op.grant
	}
	op.kind = kind
	op.lpa = lpa
	op.retries = 0
	op.done = done
	return op
}

// putOp returns a finished record to the freelist. The caller callbacks
// are dropped so the pool never pins model closures.
//
//simlint:hotpath
//simlint:release
func (d *Device) putOp(op *pageOp) {
	op.done = nil
	op.release = nil
	op.nextFree = d.freeOps
	d.freeOps = op
}

// at sets the step the record runs next and returns its callback.
//
//simlint:hotpath
func (op *pageOp) at(s opStage) func() {
	op.stage = s
	return op.next
}

// advance runs the record's pending step.
func (op *pageOp) advance() {
	d := op.d
	switch op.stage {
	case stageCommand:
		d.command(op)
	case stageCacheHit:
		d.cacheHits++
		d.hostReads++
		d.finish(op)
	case stageAbsorbed:
		d.absorbed(op)
	case stageFlush:
		ch, die, _ := d.geo.PlaneLoc(op.plane)
		d.channels[ch].TransferIn(die, d.geo.PageSize, op.at(stageProgram))
	case stageProgram:
		d.program(op)
	case stageProgrammed:
		d.programmed(op)
	case stageArrayRead:
		d.arrayReadDone(op)
	case stageRetried:
		op.retries++
		d.readArray(op)
	case stageTransferred:
		if op.kind == opHostRead {
			d.hostReads++
		}
		d.finish(op)
	case stageCopyRead:
		d.relocateRead(op)
	case stageCopied:
		d.relocateProgrammed(op)
	}
}

// grant is the cache-slot grant of a host write: hold the slot and
// absorb the page into DRAM.
//
//simlint:hotpath
func (op *pageOp) grant(release func()) {
	op.release = release
	op.d.eng.Schedule(op.d.cfg.DRAMPageLatency, op.at(stageAbsorbed))
}

// finish retires an operation: recycle the record, then signal the
// device's drain accounting and the caller.
//
//simlint:hotpath
func (d *Device) finish(op *pageOp) {
	done := op.done
	d.putOp(op)
	d.opDone()
	if done != nil {
		done()
	}
}

// command runs once the NVMe command overhead has elapsed. A host write
// waits for a cache slot. A host read of a cache-resident dirty page is
// served from DRAM; any other host read goes to the array.
func (d *Device) command(op *pageOp) {
	if op.kind == opHostWrite {
		d.cacheSlots.Hold(op.granted)
		return
	}
	if d.dirty[op.lpa] > 0 {
		d.eng.Schedule(d.cfg.DRAMPageLatency, op.at(stageCacheHit))
		return
	}
	ppa, ok := d.ftl.Lookup(op.lpa)
	if !ok {
		panic(fmt.Sprintf("ssd: read of unmapped lpa %d", op.lpa))
	}
	op.ppa = ppa
	d.readArray(op)
}

// absorbed completes a host write towards the host (the page is in DRAM)
// and queues its flush behind the plane's allocation headroom.
func (d *Device) absorbed(op *pageOp) {
	d.dirty[op.lpa]++
	if done := op.done; done != nil {
		op.done = nil
		done()
	}
	op.plane = d.planeFor(op.lpa)
	d.whenWritable(op.plane, op.at(stageFlush))
}

// program allocates the next page of the op's plane and programs it. The
// allocation and the program issue are adjacent, which keeps the plane's
// write pointer coherent with the FTL's frontier.
func (d *Device) program(op *pageOp) {
	ppa := d.ftl.AllocPage(op.plane)
	d.planeInflight[op.plane]--
	d.ftl.BeginProgram(ppa)
	op.ppa = ppa
	d.Die(ppa.Channel, ppa.Die).Program(ppa.Addr, op.at(stageProgrammed))
}

// programmed commits a completed program (see Write for the torn-write
// contract) and retires the operation.
func (d *Device) programmed(op *pageOp) {
	d.ftl.EndProgram(op.ppa)
	// Commit before clearing dirty so a read never sees a window where the
	// page is neither cached nor mapped.
	d.commit(op.lpa, op.ppa, false)
	plane := op.plane
	if op.kind == opHostWrite {
		d.hostWrites++
		if d.dirty[op.lpa] > 1 {
			d.dirty[op.lpa]--
		} else {
			delete(d.dirty, op.lpa)
		}
		d.boundary(BoundaryHostWrite, op.lpa)
		release := op.release
		d.putOp(op)
		release()
		d.maybeGC(plane)
		d.opDone()
		return
	}
	d.updateWrites++
	d.boundary(BoundaryUpdate, op.lpa)
	d.maybeGC(plane)
	d.finish(op)
}

// readArray issues the array read of the op's page.
func (d *Device) readArray(op *pageOp) {
	d.Die(op.ppa.Channel, op.ppa.Die).Read(op.ppa.Addr, op.at(stageArrayRead))
}

// arrayReadDone absorbs injected uncorrectable errors with read-retry —
// each pending error costs readRetryFactor × tR of plane time, then the
// page is read again, in case more errors were injected meanwhile. The
// check runs when the read completes, not when it was issued. A converged
// read feeds the retirement tracker and moves on: a host read transfers
// the page out, an internal read is done.
func (d *Device) arrayReadDone(op *pageOp) {
	if d.injectedReadErrs[op.lpa] > 0 {
		d.injectedReadErrs[op.lpa]--
		d.recoveredErrors++
		retry := readRetryFactor * d.cfg.Nand.ReadLatency
		d.Die(op.ppa.Channel, op.ppa.Die).Occupy(op.ppa.Addr, retry, op.at(stageRetried))
		return
	}
	d.onReadDone(op.ppa, int(op.retries))
	if op.kind == opHostRead {
		d.channels[op.ppa.Channel].TransferOut(op.ppa.Die, d.geo.PageSize, op.at(stageTransferred))
		return
	}
	d.finish(op)
}
