package sim

// Counter is a completion counter (a simulation-domain WaitGroup): Add
// registers expected completions, Done signals one, and when the count
// reaches zero the callback fires. Unlike sync.WaitGroup it is purely
// single-threaded and may be re-armed.
type Counter struct {
	n    int
	done func()
}

// NewCounter returns a counter that invokes done when n completions have
// been signalled. If n is zero, done fires on the first Arm call.
func NewCounter(n int, done func()) *Counter {
	return &Counter{n: n, done: done}
}

// Add adjusts the number of expected completions by delta (negative
// deltas retire expectations, e.g. a fork-join cancelling branches).
// Reaching zero fires the callback exactly like Done and Arm do — a
// fork-join whose last outstanding branches are cancelled via Add(-k)
// must complete, not deadlock. Driving the count below zero panics, the
// same over-completion bug Done catches.
func (c *Counter) Add(delta int) {
	c.n += delta
	if c.n < 0 {
		panic("sim: Counter.Add below zero")
	}
	if c.n == 0 && c.done != nil {
		cb := c.done
		c.done = nil
		cb()
	}
}

// Remaining returns the number of completions still outstanding.
func (c *Counter) Remaining() int { return c.n }

// Done signals one completion; when the count hits zero the callback runs
// synchronously. Calling Done more times than registered panics.
func (c *Counter) Done() {
	if c.n <= 0 {
		panic("sim: Counter.Done below zero")
	}
	c.n--
	if c.n == 0 && c.done != nil {
		cb := c.done
		c.done = nil
		cb()
	}
}

// Arm fires the callback immediately if no completions are outstanding.
// Use after a loop that may have issued zero operations.
func (c *Counter) Arm() {
	if c.n == 0 && c.done != nil {
		cb := c.done
		c.done = nil
		cb()
	}
}

// Stage is one branch of a ForkJoin: it performs asynchronous work and
// invokes next exactly once when finished.
type Stage func(next func())

// ForkJoin starts every branch immediately and calls done once all have
// completed. With zero branches done fires synchronously.
func ForkJoin(done func(), branches ...Stage) {
	c := NewCounter(len(branches), done)
	for _, b := range branches {
		b(c.Done)
	}
	c.Arm()
}
