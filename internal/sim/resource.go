package sim

import "fmt"

// Resource models a server (or pool of identical servers) with a FIFO
// request queue: a NAND plane, a channel bus, a DMA engine, a PCIe link.
// Requests acquire one unit of capacity, hold it for a caller-determined
// duration, and release it; waiting requests are granted strictly in
// arrival order, which keeps simulations deterministic.
//
// When the engine carries a Tracer, the resource reports its activity on
// a track named after the resource: one "hold" span per grant→release
// interval (their sum is exactly the busy-time integral Utilization is
// computed from), one "wait" span per queued request, and "in_use"/
// "queue" counter samples at every transition. With no tracer every hook
// is a single nil-check branch.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	draining bool

	queue fifo     // waiting requests, in arrival order
	free  freelist // idle request records

	// Utilisation accounting.
	busyTime   Time // integral of inUse over time, in unit-nanoseconds
	lastChange Time
	grants     uint64
	peakQueue  int
}

// NewResource creates a resource with the given capacity (number of
// identical servers). Capacity must be positive.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity %d", name, capacity))
	}
	return &Resource{eng: eng, name: name, capacity: capacity}
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// Capacity returns the number of servers.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of requests waiting for a unit.
func (r *Resource) QueueLen() int { return r.queue.n }

// Grants returns how many acquisitions have been granted in total.
func (r *Resource) Grants() uint64 { return r.grants }

func (r *Resource) account() {
	now := r.eng.Now()
	r.busyTime += Time(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// Utilization returns the mean fraction of capacity that was busy between
// simulation start and the current time. Returns 0 before time advances.
func (r *Resource) Utilization() float64 {
	now := r.eng.Now()
	total := r.busyTime + Time(r.inUse)*(now-r.lastChange)
	if now == 0 {
		return 0
	}
	return float64(total) / (float64(now) * float64(r.capacity))
}

// Use is the common acquire–hold–release pattern: wait for a unit, hold it
// for d nanoseconds of simulated time, then release and call done (which
// may be nil). It returns immediately; everything happens via events.
//
// This is the kernel's hottest path (every NAND array operation, bus
// transfer and link transfer goes through it); the request and its
// completion event are recycled through freelists, so steady-state Use
// costs zero heap allocations (pinned by TestDisabledTracerAddsNoAllocations).
//
//simlint:hotpath
func (r *Resource) Use(d Time, done func()) {
	w := r.free.get()
	w.r, w.d, w.done = r, d, done
	r.submit(w)
}

// Hold requests one unit. When a unit is available — immediately, or
// once earlier requests release — granted is invoked with a release
// function that must be called exactly once. The grant happens
// synchronously when capacity is free, so callers must not assume a
// simulated-time delay.
//
// The request is pooled and its release is bound once per record, so a
// steady-state Hold allocates nothing. Calling release twice panics, as
// does calling it after the record was recycled into a Use request or a
// Hold that is still queued; a Hold that was granted the recycled record
// cannot be told apart, so the holder must drop the function at its call
// (the handle contract of every pooled record).
//
//simlint:hotpath
func (r *Resource) Hold(granted func(release func())) {
	h := r.free.get()
	if h.release == nil {
		h.release = h.releaseHold
	}
	h.r, h.granted = r, granted
	r.submit(h)
}

// submit grants q at once when a unit is free, else queues it.
func (r *Resource) submit(q *request) {
	// A free unit is handed over only when no earlier request is still
	// queued; capacity can be momentarily free with a non-empty queue
	// while a release drain is in progress, and granting here would let
	// the newcomer overtake FIFO order.
	if r.inUse < r.capacity && r.queue.n == 0 {
		r.grant(q)
		return
	}
	q.enqAt, q.grantAt = -1, -1
	if r.eng.trace != nil {
		q.enqAt = r.eng.now
	}
	r.queue.push(q)
	if r.queue.n > r.peakQueue {
		r.peakQueue = r.queue.n
	}
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "queue", r.eng.now, float64(r.queue.n))
	}
}

// grant takes one unit for q. A Use request schedules its completion; a
// Hold request hands its holder the release.
func (r *Resource) grant(q *request) {
	r.account()
	r.inUse++
	r.grants++
	q.grantAt = r.eng.now
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "in_use", q.grantAt, float64(r.inUse))
	}
	if q.granted != nil {
		q.granted(q.release)
		return
	}
	r.eng.schedule(q.d, finishUse, q)
}

// finishUse is the completion callback of a Use request (package
// function, so scheduling it allocates no closure): release the unit,
// recycle the request, then run the caller's callback.
//
//simlint:hotpath
func finishUse(arg any) {
	w := arg.(*request)
	r := w.r
	if t := r.eng.trace; t != nil {
		t.Span(r.name, "hold", w.grantAt, r.eng.now)
	}
	done := w.done
	r.free.put(w)
	r.release()
	if done != nil {
		done()
	}
}

// releaseHold is a Hold request's release function.
//
//simlint:hotpath
func (h *request) releaseHold() {
	r := h.r
	if h.granted == nil || h.grantAt < 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("sim: double release of %q", r.name))
	}
	if t := r.eng.trace; t != nil {
		t.Span(r.name, "hold", h.grantAt, r.eng.now)
	}
	r.free.put(h)
	r.release()
}

// release returns one unit and hands freed capacity to queued requests in
// FIFO order. The drain is iterative: a granted waiter that releases
// synchronously re-enters release, which only decrements and returns
// (draining is set), leaving the original loop to grant the next waiter.
// The recursive hand-off this replaces grew the goroutine stack linearly
// with queue depth — a release at the head of a 100k-deep queue built a
// 100k-frame release→grant→release chain before unwinding.
//
//simlint:hotpath
func (r *Resource) release() {
	r.account()
	r.inUse--
	if r.inUse < 0 {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("sim: resource %q released below zero", r.name))
	}
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "in_use", r.eng.now, float64(r.inUse))
	}
	if r.draining {
		return
	}
	r.draining = true
	for r.inUse < r.capacity && r.queue.n > 0 {
		q := r.queue.pop()
		if t := r.eng.trace; t != nil {
			t.Counter(r.name, "queue", r.eng.now, float64(r.queue.n))
			if q.enqAt >= 0 {
				t.Span(r.name, "wait", q.enqAt, r.eng.now)
			}
		}
		r.grant(q)
	}
	r.draining = false
}

// PeakQueue returns the maximum number of simultaneously waiting requests
// observed.
func (r *Resource) PeakQueue() int { return r.peakQueue }
