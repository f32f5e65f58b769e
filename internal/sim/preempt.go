package sim

import "fmt"

// Preemptible is a capacity-1 server whose low-priority occupant can be
// suspended by high-priority requests — the model for NAND program/erase
// suspend: a page read (tens of µs) preempts an in-flight program
// (hundreds of µs), which then resumes where it left off plus a resume
// overhead.
//
// Scheduling rules:
//   - high-priority requests run ahead of every queued low-priority one,
//     and suspend the current occupant if it is low-priority;
//   - a suspended occupant resumes (remaining time + ResumeOverhead) once
//     no high-priority work is pending;
//   - high-priority work never preempts high-priority work.
type Preemptible struct {
	eng  *Engine
	name string

	// ResumeOverhead is added to the remaining time of a suspended
	// operation each time it resumes.
	ResumeOverhead Time

	busy      bool
	curLowPri bool
	curEnd    *Event
	curDone   func()
	curFinish Time
	// curOverhead is the resume-overhead share at the front of the
	// current service interval: zero for a fresh operation,
	// ResumeOverhead for a resumed one. Suspending again nets out the
	// portion not yet consumed, so overhead never compounds across
	// repeated suspends (see suspendCurrent).
	curOverhead Time

	// suspended is the suspended operation (d is its remaining work) or
	// nil; hi and lo queue the waiting operations. All are records from
	// free. The operation in service lives in the cur fields, and its
	// completion event carries the Preemptible itself.
	suspended *request
	hi, lo    fifo
	free      freelist

	preemptions uint64
	busyTime    Time
	curStart    Time
}

// NewPreemptible builds the resource.
func NewPreemptible(eng *Engine, name string, resumeOverhead Time) *Preemptible {
	if resumeOverhead < 0 {
		panic(fmt.Sprintf("sim: resume overhead %d", resumeOverhead))
	}
	return &Preemptible{eng: eng, name: name, ResumeOverhead: resumeOverhead}
}

// Preemptions returns how many suspends occurred.
func (p *Preemptible) Preemptions() uint64 { return p.preemptions }

// Busy reports whether an operation is executing right now.
func (p *Preemptible) Busy() bool { return p.busy }

// Use runs a preemptible (low-priority) operation of duration d, then done.
//
//simlint:hotpath
func (p *Preemptible) Use(d Time, done func()) {
	if p.busy {
		p.wait(&p.lo, d, done)
		return
	}
	p.start(d, done, true, 0)
}

// UsePriority runs a high-priority operation of duration d, suspending the
// current low-priority occupant if necessary, then done.
//
//simlint:hotpath
func (p *Preemptible) UsePriority(d Time, done func()) {
	if p.busy && p.curLowPri {
		p.suspendCurrent()
	}
	if p.busy {
		p.wait(&p.hi, d, done)
		return
	}
	p.start(d, done, false, 0)
}

// wait queues an operation on q behind the one in service.
func (p *Preemptible) wait(q *fifo, d Time, done func()) {
	op := p.free.get()
	op.d, op.done = d, done
	q.push(op)
}

// suspendCurrent captures the occupant's remaining *work* and cancels its
// completion event. If the occupant was itself a resumed operation, part
// of its service interval is resume overhead rather than work; whatever
// overhead has not elapsed yet is netted out, because the next resume
// charges a fresh ResumeOverhead. Carrying it forward instead (the
// pre-fix behaviour) compounded one extra overhead per suspend, inflating
// program latency under read-heavy interference.
func (p *Preemptible) suspendCurrent() {
	now := p.eng.Now()
	remaining := p.curFinish - now
	if remaining < 0 {
		remaining = 0
	}
	if unconsumed := p.curOverhead - (now - p.curStart); unconsumed > 0 {
		remaining -= unconsumed
		if remaining < 0 {
			remaining = 0
		}
	}
	p.busyTime += now - p.curStart
	p.eng.Cancel(p.curEnd)
	s := p.free.get()
	s.d, s.done = remaining, p.curDone
	p.suspended = s
	p.preemptions++
	p.busy = false
	p.curEnd = nil
	p.curDone = nil
}

func (p *Preemptible) start(d Time, done func(), lowPri bool, overhead Time) {
	p.busy = true
	p.curLowPri = lowPri
	p.curDone = done
	p.curStart = p.eng.Now()
	p.curFinish = p.curStart + d
	p.curOverhead = overhead
	p.curEnd = p.eng.schedule(d, finishPreemptible, p)
}

// finishPreemptible is the completion callback of the in-service
// operation (package function: scheduling it allocates no closure).
//
//simlint:hotpath
func finishPreemptible(arg any) {
	p := arg.(*Preemptible)
	done := p.curDone
	p.busy = false
	p.curEnd = nil
	p.curDone = nil
	p.busyTime += p.eng.Now() - p.curStart
	if done != nil {
		done()
	}
	p.dispatch()
}

// dispatch picks the next work item: high-priority queue, then the
// suspended operation, then the low-priority queue.
func (p *Preemptible) dispatch() {
	if p.busy {
		return
	}
	if op := p.hi.pop(); op != nil {
		p.start(op.d, op.done, false, 0)
		p.free.put(op)
	} else if s := p.suspended; s != nil {
		p.suspended = nil
		p.start(s.d+p.ResumeOverhead, s.done, true, p.ResumeOverhead)
		p.free.put(s)
	} else if op := p.lo.pop(); op != nil {
		p.start(op.d, op.done, true, 0)
		p.free.put(op)
	}
}

// Utilization returns the busy fraction since simulation start.
func (p *Preemptible) Utilization() float64 {
	now := p.eng.Now()
	if now == 0 {
		return 0
	}
	total := p.busyTime
	if p.busy {
		total += now - p.curStart
	}
	return float64(total) / float64(now)
}
