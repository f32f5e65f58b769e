package sim

// request is the kernel's one pooled request record. A Resource uses it
// for Use requests (hold a unit for d, then call done) and Hold requests
// (granted receives release); a Preemptible uses it for queued and
// suspended operations (d is the duration, or the remaining work). Records
// recycle through a freelist, so a steady-state request cycle allocates
// nothing, and a Use request doubles as its completion event's argument.
//
// A Hold request's release is the method value of releaseHold, bound the
// first time the record serves a Hold and kept for every later one. The
// record is held from its grant to its release: granted is set and
// grantAt is not -1. Folding that state into existing fields keeps the
// record at 64 bytes, one allocation size class.
//
//simlint:pooled
type request struct {
	r        *Resource
	d        Time
	done     func()
	granted  func(release func())
	release  func()
	enqAt    Time // wait-span start; -1 when not enqueued under tracing
	grantAt  Time // -1 while a Hold request waits in the queue
	nextFree *request
}

// freelist links idle request records through nextFree.
type freelist struct{ head *request }

//simlint:hotpath
func (f *freelist) get() *request {
	if q := f.head; q != nil {
		f.head = q.nextFree
		return q
	}
	//simlint:allow hotalloc pool growth: one-time allocation while the freelist warms up
	return &request{}
}

// put returns q to the freelist. It drops the caller's callbacks so the
// pool never pins model closures, and so a stale Hold release finds
// granted nil and panics.
//
//simlint:hotpath
//simlint:release
func (f *freelist) put(q *request) {
	q.done, q.granted = nil, nil
	q.nextFree = f.head
	f.head = q
}

// fifo is a ring buffer of waiting requests: n slots from head, wrapping
// at len(buf) (a power of two). A queue that never drains reuses its
// storage instead of growing.
type fifo struct {
	buf     []*request
	head, n int
}

// push appends q at the tail, doubling the ring (in FIFO order) when it
// is full.
func (f *fifo) push(q *request) {
	if f.n == len(f.buf) {
		size := 2 * len(f.buf)
		if size == 0 {
			size = 8
		}
		//simlint:allow hotalloc amortized ring growth to the peak queue depth; steady state reuses storage
		buf := make([]*request, size)
		for i := 0; i < f.n; i++ {
			buf[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
		}
		f.buf, f.head = buf, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = q
	f.n++
}

// pop removes and returns the head, or nil when the queue is empty.
func (f *fifo) pop() *request {
	if f.n == 0 {
		return nil
	}
	q := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return q
}
