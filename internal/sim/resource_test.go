package sim

import (
	"runtime"
	"testing"
)

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		r.Use(100, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "planes", 4)
	var ends []Time
	for i := 0; i < 8; i++ {
		r.Use(50, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	// Two waves of four.
	for i, want := range []Time{50, 50, 50, 50, 100, 100, 100, 100} {
		if ends[i] != want {
			t.Fatalf("ends = %v", ends)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Use(10, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order %v not FIFO", order)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	r.Use(100, nil)
	// Idle 100ns afterwards.
	e.Schedule(200, func() {})
	e.Run()
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

// TestResourceDeepContentionIterativeDrain queues 100k waiters behind one
// held unit whose granted callbacks release synchronously, so a single
// release drains the entire queue in one cascade. The pre-fix recursive
// hand-off built a release→grant→release call chain one frame per waiter
// deep (a ~100k-frame stack); the iterative drain must keep the call
// stack flat while preserving exact FIFO grant order and timestamps.
func TestResourceDeepContentionIterativeDrain(t *testing.T) {
	const waiters = 100_000
	e := NewEngine()
	r := NewResource(e, "r", 1)

	var hold func()
	r.Hold(func(release func()) { hold = release })

	var order []int
	var times []Time
	maxDepth := 0
	pcs := make([]uintptr, 512)
	for i := 0; i < waiters; i++ {
		i := i
		r.Hold(func(release func()) {
			order = append(order, i)
			times = append(times, e.Now())
			if d := runtime.Callers(0, pcs); d > maxDepth {
				maxDepth = d
			}
			release()
		})
	}
	if r.QueueLen() != waiters {
		t.Fatalf("queue = %d, want %d", r.QueueLen(), waiters)
	}

	e.Schedule(100, hold)
	e.Run()

	if len(order) != waiters {
		t.Fatalf("granted %d waiters, want %d", len(order), waiters)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order broken at %d: got %d (FIFO violated)", i, v)
		}
		if times[i] != 100 {
			t.Fatalf("waiter %d granted at t=%d, want 100", i, times[i])
		}
	}
	if r.Grants() != waiters+1 || r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("grants=%d inUse=%d queue=%d after drain", r.Grants(), r.InUse(), r.QueueLen())
	}
	// The recursive version exceeds any fixed bound (one release and one
	// grant frame per queued waiter); the iterative drain stays shallow no
	// matter how deep the queue was.
	if maxDepth >= len(pcs) {
		t.Fatalf("call stack reached %d+ frames during drain; hand-off is recursing", maxDepth)
	}
}

// TestResourceHoldDuringDrainKeepsFIFO pins the companion Hold guard: a
// granted callback that releases synchronously and immediately
// re-acquires must queue behind the already-waiting requests (capacity is
// momentarily free mid-drain, but the queue is not empty).
func TestResourceHoldDuringDrainKeepsFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	var order []string

	var hold func()
	r.Hold(func(release func()) { hold = release })
	r.Hold(func(release func()) {
		order = append(order, "a")
		release()
		// Queue is still holding b; this must not overtake it.
		r.Hold(func(release func()) {
			order = append(order, "a2")
			release()
		})
	})
	r.Hold(func(release func()) {
		order = append(order, "b")
		release()
	})
	e.Schedule(10, hold)
	e.Run()

	want := []string{"a", "b", "a2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceDoubleReleasePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	r.Hold(func(release func()) {
		release()
		release()
	})
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewResource(NewEngine(), "bad", 0)
}

func TestResourceCounters(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	for i := 0; i < 3; i++ {
		r.Use(10, nil)
	}
	if r.QueueLen() != 2 {
		t.Fatalf("queue = %d, want 2", r.QueueLen())
	}
	if r.PeakQueue() != 2 {
		t.Fatalf("peak = %d", r.PeakQueue())
	}
	e.Run()
	if r.Grants() != 3 {
		t.Fatalf("grants = %d", r.Grants())
	}
	if r.InUse() != 0 {
		t.Fatalf("inUse = %d after drain", r.InUse())
	}
	if r.Name() != "r" || r.Capacity() != 1 {
		t.Fatal("accessors wrong")
	}
}

// TestResourceQueueStaysBounded pins the ring-buffer queue: a queue
// that never drains, but whose depth stays small, must keep reusing its
// storage. A slice queue that compacts only when it empties grows by one
// slot per request for as long as the queue stays non-empty.
func TestResourceQueueStaysBounded(t *testing.T) {
	const depth, cycles = 8, 10_000
	e := NewEngine()
	r := NewResource(e, "r", 1)
	var order []int
	issued := 0
	use := func() {
		i := issued
		issued++
		r.Use(1, func() { order = append(order, i) })
	}
	for i := 0; i <= depth; i++ {
		use() // one granted, depth waiting
	}
	for c := 0; c < cycles; c++ {
		if !e.Step() {
			t.Fatal("engine ran dry with requests queued")
		}
		if r.QueueLen() == 0 || r.QueueLen() > depth {
			t.Fatalf("cycle %d: queue depth %d, want 1..%d", c, r.QueueLen(), depth)
		}
		use()
	}
	e.Run()
	if got := cap(r.queue.buf); got > 2*depth {
		t.Fatalf("queue storage grew to %d slots for a peak depth of %d, want <= %d", got, r.PeakQueue(), 2*depth)
	}
	if len(order) != issued {
		t.Fatalf("completed %d of %d requests", len(order), issued)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion %d was request %d: FIFO order broken", i, v)
		}
	}
}

// TestResourceHoldDoubleReleasePanics pins the pooled Hold path's release
// check.
func TestResourceHoldDoubleReleasePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	r.Hold(func(release func()) {
		release()
		release()
	})
}

// TestResourceStaleHoldReleasePanics pins the release check across the
// shared request freelist: after a Hold releases, its record is recycled
// into the next request, and calling the stale release must panic
// instead of releasing that request's unit. The next request is a Use in
// service, or a Hold still waiting in the queue.
func TestResourceStaleHoldReleasePanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(r *Resource) (stale func())
	}{
		{"use", func(r *Resource) (stale func()) {
			r.Hold(func(release func()) {
				stale = release
				release()
			})
			r.Use(10, nil) // takes the recycled record
			return stale
		}},
		{"queued-hold", func(r *Resource) (stale func()) {
			r.Hold(func(release func()) { stale = release })
			r.Use(10, nil)                             // queued behind the Hold
			stale()                                    // the Use is granted
			r.Hold(func(release func()) { release() }) // takes the recycled record, queued behind the Use
			return stale
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stale := tc.setup(NewResource(NewEngine(), "r", 1))
			defer func() {
				if recover() == nil {
					t.Fatal("stale release of a recycled Hold request did not panic")
				}
			}()
			stale()
		})
	}
}

// TestResourceHoldKeepsFIFOAndAllocatesNothing checks that pooled Hold
// requests queue in arrival order behind Use requests and that a warm
// Hold cycle allocates nothing.
func TestResourceHoldKeepsFIFOAndAllocatesNothing(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	var holdAt, use2At Time = -1, -1
	r.Use(10, nil)
	r.Hold(func(release func()) {
		holdAt = e.Now()
		e.Schedule(5, release)
	})
	r.Use(10, func() { use2At = e.Now() })
	e.Run()
	if holdAt != 10 || use2At != 25 {
		t.Fatalf("hold granted at %d, second use done at %d, want 10 and 25", holdAt, use2At)
	}
	var rel func()
	granted := func(release func()) { rel = release }
	per := testing.AllocsPerRun(1000, func() {
		r.Hold(granted)
		r.Hold(granted) // queued behind the first
		rel()           // the queued request is granted
		rel()
	})
	//simlint:allow floateq AllocsPerRun returns a whole count; the pin is exactly zero
	if per != 0 {
		t.Fatalf("warm Hold cycle allocates %v, want 0", per)
	}
}

// recTracer is a minimal Tracer capturing events for assertions.
type recTracer struct {
	spans    []string
	spanSum  map[string]Time
	instants map[string]int
	counters int
}

func newRecTracer() *recTracer {
	return &recTracer{spanSum: map[string]Time{}, instants: map[string]int{}}
}

func (r *recTracer) Span(track, name string, start, end Time) {
	r.spans = append(r.spans, track+"/"+name)
	r.spanSum[track+"/"+name] += end - start
}
func (r *recTracer) Instant(track, name string, at Time) { r.instants[track+"/"+name]++ }
func (r *recTracer) Counter(track, name string, at Time, value float64) {
	r.counters++
}

// TestTracerObservesEngineAndResource checks the instrumentation points:
// fire/cancel instants from the engine, and hold/wait spans from resources
// whose hold sum reproduces the utilization integral exactly.
func TestTracerObservesEngineAndResource(t *testing.T) {
	e := NewEngine()
	tr := newRecTracer()
	e.SetTracer(tr)
	r := NewResource(e, "bus", 1)
	for i := 0; i < 3; i++ {
		r.Use(100, nil)
	}
	ev := e.Schedule(500, func() {})
	e.Cancel(ev)
	e.Schedule(400, func() {}) // extend past the last release
	e.Run()

	if tr.instants["engine/cancel"] != 1 {
		t.Fatalf("cancel instants = %d", tr.instants["engine/cancel"])
	}
	if tr.instants["engine/fire"] == 0 {
		t.Fatal("no fire instants recorded")
	}
	if got := tr.spanSum["bus/hold"]; got != 300 {
		t.Fatalf("hold span sum = %d, want 300", got)
	}
	// Reconciliation: span sum / (now * capacity) == Utilization.
	wantUtil := float64(tr.spanSum["bus/hold"]) / (float64(e.Now()) * float64(r.Capacity()))
	//simlint:allow floateq reconciliation is specified bit-exact: same division, same operands
	if got := r.Utilization(); got != wantUtil {
		t.Fatalf("utilization %v != trace-derived %v", got, wantUtil)
	}
	// Two of the three requests queued: two wait spans of 100 and 200.
	if got := tr.spanSum["bus/wait"]; got != 300 {
		t.Fatalf("wait span sum = %d, want 300", got)
	}
	if tr.counters == 0 {
		t.Fatal("no counter samples recorded")
	}
}

// TestDisabledTracerAddsNoAllocations pins the hot-path cost of the
// disabled tracer and of the pooled kernel: a steady-state Use+Run cycle
// allocates nothing at all — the request struct comes from the
// resource's freelist, the completion event from the engine's, and the
// completion callback is a package function taking the pooled request as
// its argument, so there are no closures to heap-allocate. (The
// pre-pooling kernel allocated 6 objects per cycle here.)
func TestDisabledTracerAddsNoAllocations(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "r", 1)
	for i := 0; i < 64; i++ { // pre-grow heap and queue slices
		r.Use(1, nil)
	}
	e.Run()
	per := testing.AllocsPerRun(1000, func() {
		r.Use(1, nil)
		e.Run()
	})
	//simlint:allow floateq AllocsPerRun returns a whole count; the pin is exactly zero
	if per != 0 {
		t.Fatalf("Use+Run allocates %v with tracing disabled, want 0 (pooled request/event kernel)", per)
	}
}
