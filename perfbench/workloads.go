package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/invariant"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/tracing"
)

const (
	// sweepConfigs is how many invariant.Configs the sweep draws per seed.
	// At 8 (40 points) the simulated work of a pass spreads by about 30%
	// between seeds (interquartile range over 40 seeds), wider than any
	// bound. At 256 the host time of a pass still moved by about 7% (one
	// standard deviation) from seed to seed; the spread shrinks with the
	// square root of the count.
	sweepConfigs = 512
	// paperWindow is the reference window, in update units, that small
	// windows are compared against (ROADMAP item 1).
	paperWindow = 16384
	// smallWindow is the window the quick experiments and the invariant
	// sweep run at.
	smallWindow = 128
	// tuneWindow and tuneBudget are cmd/tune's defaults.
	tuneWindow = 512
	tuneBudget = 64
	// minPasses keeps medians meaningful when -seconds is shorter than a
	// few passes.
	minPasses = 3
)

// workload is one input set of the benchmark.
type workload interface {
	// run executes the workload once with tracing off.
	run() *pass
	// check audits one timed pass against the cold pass: it checks the
	// reports against the invariant registry and reruns one seeded point.
	// It returns how many of the pass's points failed.
	check(cold, p *pass, rng *rand.Rand) int
	// digest hashes the simulated outputs of a pass.
	digest(p *pass) string
	// profile is the traced run: it fills the per-layer metrics.
	profile(cold *pass, budget time.Duration, rng *rand.Rand, m metrics) (profiled, error)
}

// profiled is the outcome of a traced run. The digests cover the point
// set that was traced, once untraced and once traced; they must agree.
type profiled struct {
	attempted, failed            int
	untracedDigest, tracedDigest string
}

// point is one simulated (system, configuration) pair. The system is a
// constructor name accepted by core.NewSystem.
type point struct {
	system string
	cfg    core.Config
}

func (p point) simulate() (*core.Report, error) {
	sys, err := core.NewSystem(p.system, p.cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// eventDriven reports whether the point runs the discrete-event pipeline;
// gpuresident is analytic and builds no device.
func (p point) eventDriven() bool { return p.system != invariant.GPUResident }

// runOne simulates a point through the runner, which turns a panic into
// an error.
func runOne(p point) runner.Result[*core.Report] {
	return runner.Run(1, []runner.Job[*core.Report]{p.simulate})[0]
}

// timePass runs fn and records its host and wall time on p.
func timePass(p *pass, fn func()) {
	start := time.Now()
	p.host = hostTime(fn)
	p.wall = time.Since(start)
}

// pass is what one untraced run of a workload produced.
type pass struct {
	// host is the pass's host time (see hostTime), wall its wall time.
	host, wall time.Duration
	points     int
	// pointMS is the host ms of each point, in point order, and jobHost
	// their sum. Both are empty for tune, whose simulations run inside
	// search.Run.
	pointMS []float64
	jobHost time.Duration
	// gc and peakRSSMB are what the Go runtime spent and the peak
	// resident set during the pass (see measurePass).
	gc        gcDelta
	peakRSSMB float64
	reports   []*core.Report
	errs      []error
	// result and err are tune's search outcome.
	result *search.Result
	err    error
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "sweep":
		var ps pointSet
		for _, cfg := range invariant.Configs(seed, sweepConfigs) {
			for _, s := range core.SystemNames() {
				ps.pts = append(ps.pts, point{s, cfg})
			}
		}
		return ps, nil
	case "paper-step":
		cfg, err := paperConfig(paperWindow)
		if err != nil {
			return nil, err
		}
		ps := pointSet{ledger: true}
		for _, s := range core.SystemNames() {
			ps.pts = append(ps.pts, point{s, cfg})
		}
		return ps, nil
	case "tune":
		cfg, err := paperConfig(tuneWindow)
		if err != nil {
			return nil, err
		}
		return &tuneRun{base: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep, paper-step or tune)", name)
}

// paperConfig is the GPT-13B paper default at the given window.
func paperConfig(units int64) (core.Config, error) {
	m, err := dnn.ByName("GPT-13B")
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig(m)
	cfg.MaxSimUnits = units
	return cfg, nil
}

// reportFailure explains a failed point on standard error.
func reportFailure(what string, p point, err error, violations []string) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s (%d units, cfg %016x): err=%v violations=%v\n",
		what, p.system, p.cfg.MaxSimUnits, p.cfg.CanonicalHash(), err, violations)
}

// pointSet is a workload of independent points run in order by one
// runner worker: sweep and paper-step.
type pointSet struct {
	pts []point
	// ledger asks the traced run for the simulated per-layer ledger and
	// the per-system window error (paper-step).
	ledger bool
}

// run simulates every point through one runner worker, which runs the
// jobs on the calling goroutine, so each job's host time can be taken
// inside it.
func (ps pointSet) run() *pass {
	out := &pass{points: len(ps.pts), pointMS: make([]float64, len(ps.pts))}
	jobs := make([]runner.Job[*core.Report], len(ps.pts))
	for i, p := range ps.pts {
		jobs[i] = func() (*core.Report, error) {
			start := threadCPU()
			defer func() {
				d := threadCPU() - start
				out.pointMS[i], out.jobHost = ms(d), out.jobHost+d
			}()
			return p.simulate()
		}
	}
	var results []runner.Result[*core.Report]
	timePass(out, func() { results = runner.Run(1, jobs) })
	for _, r := range results {
		out.reports = append(out.reports, r.Value)
		out.errs = append(out.errs, r.Err)
	}
	return out
}

// check counts a point as failed when it returned an error or panicked,
// when its report breaks an invariant, or when it differs from the cold
// pass's report or from its seeded rerun. An infeasible report
// (gpuresident beyond device memory) is a valid outcome.
func (ps pointSet) check(cold, p *pass, rng *rand.Rand) int {
	failed := 0
	pick := rng.Intn(len(ps.pts))
	rerun := runOne(ps.pts[pick])
	for i, pt := range ps.pts {
		var violations []string
		if p.errs[i] == nil {
			violations = invariant.Check(pt.system, pt.cfg, p.reports[i])
		}
		ok := p.errs[i] == nil && cold.errs[i] == nil && len(violations) == 0 &&
			same(p.reports[i], cold.reports[i])
		if i == pick {
			ok = ok && rerun.Err == nil && same(rerun.Value, p.reports[i])
		}
		if !ok {
			failed++
			reportFailure("point failed", pt, p.errs[i], violations)
		}
	}
	return failed
}

func (ps pointSet) digest(p *pass) string {
	h := sha256.New()
	for i, pt := range ps.pts {
		writeReport(h, pt.system, p.reports[i], p.errs[i])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeReport renders every simulated field of a report; the report holds
// no host measurement, so equal renderings mean equal simulated outputs.
func writeReport(h hash.Hash, system string, r *core.Report, err error) {
	if err != nil {
		fmt.Fprintf(h, "%s error %v\n", system, err)
		return
	}
	fmt.Fprintf(h, "%s %+v\n", system, *r)
}

func (ps pointSet) profile(cold *pass, budget time.Duration, rng *rand.Rand, m metrics) (profiled, error) {
	passes, failed := timed(ps, cold, budget/2, rng)
	attempted := len(passes) * len(ps.pts)
	setGC(m, passes)
	if err := hostLayers(m, ps.pts, cold, passes); err != nil {
		return profiled{}, err
	}
	var onTrace func(point, *core.Report, *tracing.Trace)
	if ps.ledger {
		onTrace = func(p point, r *core.Report, tr *tracing.Trace) {
			if p.eventDriven() {
				ledger(m, p, r, tr)
			}
		}
		errs, err := windowErrors()
		if err != nil {
			return profiled{}, err
		}
		for s, e := range errs {
			m.set("core.window_err_pct."+s, e)
		}
	}
	a, f, traced := tracedLayers(m, ps.pts, cold, passes, budget/2, onTrace)
	return profiled{attempted + a, failed + f, ps.digest(cold), ps.digest(traced)}, nil
}

// tuneRun is the autotuner at cmd/tune's defaults with one worker.
type tuneRun struct {
	base core.Config
	// bad marks the cold search's points whose replayed report failed the
	// audit; it is filled on the first check.
	bad []bool
}

func (t *tuneRun) run() *pass {
	p := &pass{points: tuneBudget}
	timePass(p, func() {
		p.result, p.err = search.Run(t.base, search.DefaultSpace(), search.Options{Budget: tuneBudget, Parallel: 1})
	})
	if p.err == nil {
		p.points = p.result.Stats.Evaluated
	}
	return p
}

// evaluated turns a search result's simulated configurations back into
// points.
func evaluated(res *search.Result) pointSet {
	var ps pointSet
	for _, e := range res.Evaluated {
		ps.pts = append(ps.pts, point{res.System, e.Cfg})
	}
	return ps
}

// matches reports whether a replayed report carries the objectives the
// search recorded for the point.
func matches(e *search.Point, r *core.Report) bool {
	return r != nil && r.OptStepTime == e.OptStep && r.Feasible == e.Feasible &&
		math.Float64bits(r.Energy.Total()) == math.Float64bits(e.Energy)
}

// same compares two results by their rendering, the one the digest
// hashes; unlike reflect.DeepEqual it treats equal NaN fields as equal.
func same(a, b any) bool { return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b) }

// check compares a timed search with the cold one point for point, and
// simulates one seeded point of it again. search.Result keeps only the
// objectives of the simulations it ran, so the first check also replays
// every configuration the cold search simulated and audits those reports.
func (t *tuneRun) check(cold, p *pass, rng *rand.Rand) int {
	if cold.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cold search failed: %v\n", cold.err)
		return p.points
	}
	want := cold.result.Evaluated
	if t.bad == nil {
		t.bad = make([]bool, len(want))
		for i, pt := range evaluated(cold.result).pts {
			r := runOne(pt)
			var violations []string
			if r.Err == nil {
				violations = invariant.Check(pt.system, pt.cfg, r.Value)
			}
			if r.Err != nil || len(violations) > 0 || !matches(want[i], r.Value) {
				t.bad[i] = true
				reportFailure("search point failed", pt, r.Err, violations)
			}
		}
	}
	if p.err != nil || p.result.Stats != cold.result.Stats || len(p.result.Evaluated) != len(want) {
		fmt.Fprintf(os.Stderr, "perfbench: search pass differs from the cold search: err=%v\n", p.err)
		return p.points
	}
	got := p.result.Evaluated
	pick := rng.Intn(len(got))
	rerun := runOne(point{p.result.System, got[pick].Cfg})
	failed := 0
	for i := range got {
		ok := !t.bad[i] && same(got[i], want[i])
		if i == pick {
			ok = ok && rerun.Err == nil && matches(got[i], rerun.Value)
		}
		if !ok {
			failed++
		}
	}
	return failed
}

func (t *tuneRun) digest(p *pass) string {
	h := sha256.New()
	if p.err != nil {
		fmt.Fprintf(h, "error %v\n", p.err)
	} else {
		fmt.Fprintf(h, "%+v\n", p.result.Stats)
		for _, e := range p.result.Evaluated {
			fmt.Fprintf(h, "%+v\n", e)
		}
		for _, e := range p.result.Frontier {
			fmt.Fprintf(h, "frontier %d\n", e.Index)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// profile splits a search pass by layer. Each round times a search, a
// replay of the simulations it ran (search.sim_ms, and the host layers
// below core) and the steady-state WAF measurement it starts with
// (ssd.waf_measure_ms). What is left of the search is bound pricing,
// pruning and bookkeeping (search.analytic_ms), a difference of timings
// and so noisier than they are.
func (t *tuneRun) profile(cold *pass, budget time.Duration, rng *rand.Rand, m metrics) (profiled, error) {
	if cold.err != nil {
		return profiled{}, fmt.Errorf("cold search: %w", cold.err)
	}
	ev := evaluated(cold.result)
	var searches, replays []*pass
	var simMS, wafMS, restMS []float64
	attempted, failed := 0, 0
	start := time.Now()
	for len(searches) < minPasses || time.Since(start) < budget*2/3 {
		s := measurePass(t.run)
		r := ev.run()
		w, err := measureWAF(t.base)
		if err != nil {
			return profiled{}, err
		}
		failed += t.check(cold, s, rng)
		if len(replays) > 0 {
			failed += ev.check(replays[0], r, rng)
		}
		searches, replays = append(searches, s), append(replays, r)
		attempted += s.points + r.points
		simMS, wafMS = append(simMS, ms(r.host)), append(wafMS, w)
		restMS = append(restMS, ms(s.host)-ms(r.host)-w)
	}
	setGC(m, searches)
	st := cold.result.Stats
	m.set("search.evaluated", float64(st.Evaluated))
	m.set("search.pruned_frac", st.PrunedFraction())
	m.set("search.memo_hits", float64(st.MemoHits))
	m.set("search.sim_ms", median(simMS))
	m.set("search.analytic_ms", median(restMS))
	m.set("ssd.waf_measure_ms", median(wafMS))
	if err := hostLayers(m, ev.pts, replays[0], replays); err != nil {
		return profiled{}, err
	}
	a, f, traced := tracedLayers(m, ev.pts, replays[0], replays, budget/3, nil)
	return profiled{attempted + a, failed + f, ev.digest(replays[0]), ev.digest(traced)}, nil
}
