package sim

import "fmt"

// useReq is one pooled Use-path request: the duration to hold a unit and
// the completion callback. Requests live on the resource's freelist
// between uses, so a steady-state Use cycle allocates nothing — the
// request struct doubles as the argument of the completion event
// (scheduleArg), replacing the three closures the old path allocated.
//
//simlint:pooled
type useReq struct {
	r        *Resource
	d        Time
	done     func()
	enqAt    Time // wait-span start; -1 when not enqueued under tracing
	grantAt  Time
	nextFree *useReq
}

// holdReq is one Acquire or Hold request. Its release (releaseHold) and
// its queue-slot thunk (grantQueued) are method values bound once when
// the request is created. Hold requests recycle through the resource's
// freelist; an Acquire request serves one call, so its release panics on
// any second call.
//
//simlint:pooled
type holdReq struct {
	r        *Resource
	granted  func(release func())
	release  func()
	queued   func()
	pooled   bool
	held     bool // between grant and release
	enqAt    Time // wait-span start; -1 when not enqueued under tracing
	grantAt  Time
	nextFree *holdReq
}

// qent is one FIFO queue slot: either a pooled Use request or a hold
// request's grant thunk. Exactly one field is set.
type qent struct {
	w  *useReq
	fn func()
}

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

	// FIFO ring buffer: n waiting slots from head, wrapping at len(q)
	// (a power of two). A queue that never drains reuses its storage
	// instead of growing. freeReqs and freeHolds link the idle pooled
	// requests.
	q         []qent
	head, n   int
	freeReqs  *useReq
	freeHolds *holdReq

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
func (r *Resource) QueueLen() int { return r.n }

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

//simlint:hotpath
func (r *Resource) getReq() *useReq {
	if w := r.freeReqs; w != nil {
		r.freeReqs = w.nextFree
		return w
	}
	//simlint:allow hotalloc pool growth: one-time allocation while the freelist warms up
	return &useReq{r: r}
}

//simlint:hotpath
//simlint:release
func (r *Resource) putReq(w *useReq) {
	w.done = nil
	w.nextFree = r.freeReqs
	r.freeReqs = w
}

// newHold builds a hold request with its callbacks bound.
func (r *Resource) newHold() *holdReq {
	//simlint:allow hotalloc pool growth: Hold allocates only while the freelist warms up
	h := &holdReq{r: r}
	h.release = h.releaseHold
	h.queued = h.grantQueued
	return h
}

//simlint:hotpath
func (r *Resource) getHold() *holdReq {
	if h := r.freeHolds; h != nil {
		r.freeHolds = h.nextFree
		return h
	}
	h := r.newHold()
	h.pooled = true
	return h
}

//simlint:hotpath
//simlint:release
func (r *Resource) putHold(h *holdReq) {
	h.granted = nil
	h.nextFree = r.freeHolds
	r.freeHolds = h
}

// enqueue appends a request slot at the ring's tail, doubling the ring
// (in FIFO order) when it is full.
func (r *Resource) enqueue(ent qent) {
	if r.n == len(r.q) {
		r.grow()
	}
	r.q[(r.head+r.n)&(len(r.q)-1)] = ent
	r.n++
	if r.n > r.peakQueue {
		r.peakQueue = r.n
	}
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "queue", r.eng.now, float64(r.n))
	}
}

// grow doubles the ring, unwrapping the waiting slots to its front.
func (r *Resource) grow() {
	size := 2 * len(r.q)
	if size == 0 {
		size = 8
	}
	//simlint:allow hotalloc amortized ring growth to the peak queue depth; steady state reuses storage
	q := make([]qent, size)
	for i := 0; i < r.n; i++ {
		q[i] = r.q[(r.head+i)&(len(r.q)-1)]
	}
	r.q, r.head = q, 0
}

// dequeue pops the FIFO head.
func (r *Resource) dequeue() qent {
	ent := r.q[r.head]
	r.q[r.head] = qent{}
	r.head = (r.head + 1) & (len(r.q) - 1)
	r.n--
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "queue", r.eng.now, float64(r.n))
	}
	return ent
}

// Acquire requests one unit. When a unit is available — immediately, or
// once earlier requests release — granted is invoked with a release
// function that must be called exactly once; a second call panics. The
// grant happens synchronously when capacity is free, so callers must not
// assume a simulated-time delay.
//
// Acquire allocates a request per call. Hold is the same wait through a
// pooled request, and the common hold-for-a-duration pattern should use
// Use; both allocate nothing in steady state.
func (r *Resource) Acquire(granted func(release func())) {
	r.hold(r.newHold(), granted)
}

// Hold acquires one unit like Acquire, through a pooled request: granted
// receives the request's release function, bound once when the request
// was created, so a steady-state Hold allocates nothing. Calling release
// twice panics while the request waits in the pool, as Acquire's does;
// once release has run the pool may hand the request to a later Hold, so
// the holder must drop the function at its call (the handle contract of
// every pooled record).
//
//simlint:hotpath
func (r *Resource) Hold(granted func(release func())) {
	r.hold(r.getHold(), granted)
}

// hold grants h at once when a unit is free, else queues it.
//
//simlint:hotpath
func (r *Resource) hold(h *holdReq, granted func(release func())) {
	h.granted = granted
	// A free unit is handed over only when no earlier request is still
	// queued; capacity can be momentarily free with a non-empty queue
	// while a release drain is in progress, and granting here would let
	// the newcomer overtake FIFO order.
	if r.inUse < r.capacity && r.n == 0 {
		r.grantHold(h)
		return
	}
	h.enqAt = -1
	if r.eng.trace != nil {
		h.enqAt = r.eng.now
	}
	r.enqueue(qent{fn: h.queued})
}

// grantQueued is a waiting hold request's grant thunk.
func (h *holdReq) grantQueued() {
	r := h.r
	if h.enqAt >= 0 {
		if t := r.eng.trace; t != nil {
			t.Span(r.name, "wait", h.enqAt, r.eng.now)
		}
	}
	r.grantHold(h)
}

// grantHold takes one unit for h and hands the holder its release.
func (r *Resource) grantHold(h *holdReq) {
	r.account()
	r.inUse++
	r.grants++
	h.grantAt = r.eng.now
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "in_use", h.grantAt, float64(r.inUse))
	}
	h.held = true
	h.granted(h.release)
}

// releaseHold is a hold request's release function.
//
//simlint:hotpath
func (h *holdReq) releaseHold() {
	r := h.r
	if !h.held {
		//simlint:allow hotalloc cold panic path; formatting happens only on a model bug
		panic(fmt.Sprintf("sim: double release of %q", r.name))
	}
	h.held = false
	if t := r.eng.trace; t != nil {
		t.Span(r.name, "hold", h.grantAt, r.eng.now)
	}
	if h.pooled {
		r.putHold(h)
	}
	r.release()
}

// grantUse starts service for a Use-path request: one unit is taken and
// the completion event is scheduled through the pooled path.
func (r *Resource) grantUse(w *useReq) {
	r.account()
	r.inUse++
	r.grants++
	w.grantAt = r.eng.now
	if t := r.eng.trace; t != nil {
		t.Counter(r.name, "in_use", w.grantAt, float64(r.inUse))
	}
	r.eng.scheduleArg(w.d, finishUse, w)
}

// finishUse is the completion callback of a Use-path request (package
// function, so scheduling it allocates no closure): release the unit,
// recycle the request, then run the caller's callback.
//
//simlint:hotpath
func finishUse(arg any) {
	w := arg.(*useReq)
	r := w.r
	if t := r.eng.trace; t != nil {
		t.Span(r.name, "hold", w.grantAt, r.eng.now)
	}
	done := w.done
	r.putReq(w)
	r.release()
	if done != nil {
		done()
	}
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
	for r.inUse < r.capacity && r.n > 0 {
		ent := r.dequeue()
		if ent.w != nil {
			if ent.w.enqAt >= 0 {
				if t := r.eng.trace; t != nil {
					t.Span(r.name, "wait", ent.w.enqAt, r.eng.now)
				}
			}
			r.grantUse(ent.w)
		} else {
			ent.fn()
		}
	}
	r.draining = false
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
	w := r.getReq()
	w.d = d
	w.done = done
	w.enqAt = -1
	if r.inUse < r.capacity && r.n == 0 {
		r.grantUse(w)
		return
	}
	if r.eng.trace != nil {
		w.enqAt = r.eng.now
	}
	r.enqueue(qent{w: w})
}

// PeakQueue returns the maximum number of simultaneously waiting requests
// observed.
func (r *Resource) PeakQueue() int { return r.peakQueue }
