package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/tracing"
	"repro/internal/units"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics holds every metric a run prints, created with its unit and a
// zero value; set fills in a measurement.
type metrics map[string]metric

// set records a value for a metric declared by endToEndMetrics or
// perLayerMetrics; any other name is a bug in the benchmark.
func (m metrics) set(name string, v float64) {
	old, ok := m[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: undeclared metric %q", name))
	}
	m[name] = metric{Value: v, Unit: old.Unit}
}

// endToEndMetrics are printed with -trace 0 on every workload.
func endToEndMetrics() metrics {
	return metrics{
		"points_per_s":       {Unit: "1/s"},
		"point_ms_p50":       {Unit: "ms"},
		"alloc_mb_per_point": {Unit: "MB"},
		"peak_rss_mb":        {Unit: "MB"},
		"setup_s":            {Unit: "s"},
		"window_err_pct":     {Unit: "%"},
	}
}

// perLayerMetrics are printed with -trace 1 on every workload. A metric a
// workload does not exercise keeps its zero value: the search metrics
// outside tune, the simulated ledger and per-system window error outside
// paper-step, and runner.point_ms_p99 where a run holds fewer than 1000
// point samples (ten beyond the 99th percentile).
func perLayerMetrics() metrics {
	m := metrics{
		"ssd.setup_ms":               {Unit: "ms"},
		"ssd.setup_alloc_mb":         {Unit: "MB"},
		"ssd.setup_share_pct":        {Unit: "%"},
		"ssd.waf_measure_ms":         {Unit: "ms"},
		"sim.events":                 {Unit: "count"},
		"sim.ns_per_event":           {Unit: "ns"},
		"search.evaluated":           {Unit: "count"},
		"search.pruned_frac":         {Unit: "fraction"},
		"search.memo_hits":           {Unit: "count"},
		"search.sim_ms":              {Unit: "ms"},
		"search.analytic_ms":         {Unit: "ms"},
		"runner.overhead_pct":        {Unit: "%"},
		"runner.point_ms_p99":        {Unit: "ms"},
		"runtime.gc_cycles_per_op":   {Unit: "count"},
		"runtime.gc_pause_ms_per_op": {Unit: "ms"},
		"tracing.overhead_x":         {Unit: "x"},
	}
	for _, s := range core.SystemNames() {
		m["core.run_ms."+s] = metric{Unit: "ms"}
		if s == "gpuresident" {
			continue
		}
		for _, l := range ledgerLayers(s) {
			m[l+".floor_s."+s] = metric{Unit: "s"}
			m[l+".busy_pct."+s] = metric{Unit: "%"}
			m[l+".wait_us."+s] = metric{Unit: "us"}
		}
		m["core.sim_over_floor."+s] = metric{Unit: "x"}
		m["core.window_err_pct."+s] = metric{Unit: "%"}
	}
	return m
}

// timed runs passes of w until budget has elapsed and at least minPasses
// are done. Each pass is checked as soon as it ends, outside its own
// measurement, and its reports are then dropped, so the live heap does
// not grow with the number of passes.
func timed(w workload, cold *pass, budget time.Duration, rng *rand.Rand) (passes []*pass, failed int) {
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < budget {
		p := measurePass(w.run)
		failed += w.check(cold, p, rng)
		p.reports, p.errs = nil, nil
		passes = append(passes, p)
	}
	return passes, failed
}

// measurePass runs one pass and records the Go runtime's cost and the
// peak resident set during it.
func measurePass(run func() *pass) *pass {
	resetPeakRSS()
	var p *pass
	gc := measureGC(func() { p = run() })
	p.gc, p.peakRSSMB = gc, peakRSSMB()
	return p
}

func setGC(m metrics, passes []*pass) {
	var cycles uint32
	var pause time.Duration
	points := 0
	for _, p := range passes {
		cycles += p.gc.cycles
		pause += p.gc.pause
		points += p.points
	}
	m.set("runtime.gc_cycles_per_op", float64(cycles)/float64(points))
	m.set("runtime.gc_pause_ms_per_op", ms(pause)/float64(points))
}

// hostLayers splits the untraced passes of a point set by layer: the
// runner's own share of a pass, host time per system, and, for the
// event-driven points, the device set-up (replayed here on its own) and
// the event loop that follows it.
func hostLayers(m metrics, pts []point, cold *pass, passes []*pass) error {
	bySystem := map[string][]float64{}
	perPoint := make([][]float64, len(pts))
	var all, overhead []float64
	for _, p := range passes {
		for i, v := range p.pointMS {
			bySystem[pts[i].system] = append(bySystem[pts[i].system], v)
			perPoint[i] = append(perPoint[i], v)
		}
		all = append(all, p.pointMS...)
		overhead = append(overhead, 100*float64(p.host-p.jobHost)/float64(p.host))
	}
	for s, xs := range bySystem {
		m.set("core.run_ms."+s, median(xs))
	}
	m.set("runner.overhead_pct", median(overhead))
	if len(all) >= 1000 {
		m.set("runner.point_ms_p99", quantile(all, 0.99))
	}

	var setupMS, pointMS float64
	var allocB, events uint64
	n := 0
	for i, pt := range pts {
		if !pt.eventDriven() || cold.reports[i] == nil {
			continue
		}
		d, alloc, err := replaySetup(pt.cfg)
		if err != nil {
			return fmt.Errorf("set-up replay of %s: %w", pt.system, err)
		}
		setupMS += d
		allocB += alloc
		pointMS += median(perPoint[i])
		events += cold.reports[i].SimEvents
		n++
	}
	if n == 0 {
		return nil
	}
	m.set("ssd.setup_ms", setupMS/float64(n))
	m.set("ssd.setup_alloc_mb", float64(allocB)/units.BytesPerMB/float64(n))
	m.set("ssd.setup_share_pct", 100*setupMS/pointMS)
	m.set("sim.events", float64(events))
	m.set("sim.ns_per_event", (pointMS-setupMS)*units.NsPerMs/float64(events))
	return nil
}

// setupReps is how often each point's device set-up is replayed; the
// median is kept.
const setupReps = 3

// replaySetup times the device set-up an event-driven system performs
// before its first event. It returns the median host ms and the bytes
// one replay allocates.
func replaySetup(cfg core.Config) (float64, uint64, error) {
	var ds []float64
	var alloc uint64
	for i := 0; i < setupReps; i++ {
		var err error
		var d time.Duration
		gc := measureGC(func() {
			d = hostTime(func() { err = buildDevice(cfg) })
		})
		if err != nil {
			return 0, 0, err
		}
		ds = append(ds, ms(d))
		alloc = gc.allocBytes
	}
	return median(ds), alloc, nil
}

// buildDevice repeats the set-up every event-driven system's Run starts
// with: engine, device, layout, plane mapper and the preload loop.
func buildDevice(cfg core.Config) error {
	dev := ssd.NewDevice(sim.NewEngine(), cfg.SSD)
	lay, err := layout.New(dev.Geometry(), cfg.Comps(), cfg.SimUnits(), cfg.Layout)
	if err != nil {
		return err
	}
	dev.SetPlaneMapper(lay.PlaneMapper())
	for lpa := int64(0); lpa < lay.LogicalPages(); lpa++ {
		dev.Preload(lpa)
	}
	return nil
}

// tracedLayers runs traced passes over the points, one point at a time so
// that only one trace is held, until budget has elapsed (at least once).
// Each traced report must equal the untraced cold one. onTrace, if set,
// sees every point's report and trace on the first traced pass, which is
// returned for its digest.
func tracedLayers(m metrics, pts []point, cold *pass, untraced []*pass, budget time.Duration,
	onTrace func(point, *core.Report, *tracing.Trace)) (attempted, failed int, first *pass) {
	var traced, plain []float64
	start := time.Now()
	for first == nil || time.Since(start) < budget {
		p := &pass{points: len(pts)}
		for i, pt := range pts {
			tr := tracing.New(pt.system)
			tp := pt
			tp.cfg.Trace = tr
			var r runner.Result[*core.Report]
			p.jobHost += hostTime(func() { r = runOne(tp) })
			p.reports = append(p.reports, r.Value)
			p.errs = append(p.errs, r.Err)
			attempted++
			if r.Err != nil || cold.errs[i] != nil || !same(r.Value, cold.reports[i]) {
				failed++
				reportFailure("traced point differs from untraced", pt, r.Err, nil)
				continue
			}
			if first == nil && onTrace != nil {
				onTrace(pt, r.Value, tr)
			}
		}
		if first == nil {
			first = p
		}
		traced = append(traced, ms(p.jobHost))
	}
	for _, p := range untraced {
		plain = append(plain, ms(p.jobHost))
	}
	m.set("tracing.overhead_x", median(traced)/median(plain))
	return attempted, failed, first
}

// ledgerLayers names, for an event-driven system, the layers its step
// crosses, in roofline order: PCIe, channel bus, NAND media, and the
// update engine (on-die units for optimstore, the GPU or a CPU for the
// others, all modelled in internal/host).
func ledgerLayers(system string) []string {
	compute := "host.compute"
	if system == "optimstore" {
		compute = "odp.compute"
	}
	return []string{"host.pcie", "nand.bus", "nand.media", compute}
}

// layerOf maps a resource track of a traced run to its ledger layer, or
// "" for tracks outside the ledger (the DRAM cache, the engine, phases).
func layerOf(p point, track string) string {
	switch {
	case strings.HasPrefix(track, p.cfg.Link.Name+"/"):
		return "host.pcie"
	case strings.HasSuffix(track, "/bus"):
		return "nand.bus"
	case strings.Contains(track, "/plane"):
		return "nand.media"
	case strings.HasSuffix(track, "/odp"):
		return "odp.compute"
	case track == p.cfg.GPU.Name || track == p.cfg.HostCPU.Name || track == p.cfg.CtrlCPU.Name:
		return "host.compute"
	}
	return ""
}

// ledger records the simulated per-layer ledger of one traced point: the
// roofline floor of each layer, its busy share of the simulated window
// (the busier direction for PCIe, the mean over servers elsewhere) and
// the mean queueing wait per grant, from the trace's hold and wait spans.
func ledger(m metrics, p point, r *core.Report, tr *tracing.Trace) {
	roof, _ := core.RooflineFor(p.system, p.cfg)
	geo := p.cfg.SSD.Geometry()
	layers := ledgerLayers(p.system)
	floors := []sim.Time{roof.PCIe, roof.Bus, roof.Media, roof.Compute}
	servers := []int{1, p.cfg.SSD.Channels, geo.Planes(), 1}
	if p.system == "optimstore" {
		servers[3] = geo.Dies()
	}
	hold := map[string]sim.Time{}
	wait := map[string]sim.Time{}
	grants := map[string]int{}
	trackHold := map[string]sim.Time{}
	for _, e := range tr.Events() {
		l := layerOf(p, e.Track)
		if e.Kind != tracing.KindSpan || l == "" {
			continue
		}
		switch e.Name {
		case "hold":
			hold[l] += e.Duration()
			grants[l]++
			trackHold[e.Track] += e.Duration()
		case "wait":
			wait[l] += e.Duration()
		}
	}
	window := float64(r.SimTime)
	for i, l := range layers {
		busy := float64(hold[l]) / (float64(servers[i]) * window)
		if l == "host.pcie" {
			busy = 0
			for _, dir := range []string{"/down", "/up"} {
				busy = max(busy, float64(trackHold[p.cfg.Link.Name+dir])/window)
			}
		}
		var waitUS float64
		if grants[l] > 0 {
			waitUS = wait[l].Micros() / float64(grants[l])
		}
		m.set(l+".floor_s."+p.system, floors[i].Seconds())
		m.set(l+".busy_pct."+p.system, 100*busy)
		m.set(l+".wait_us."+p.system, waitUS)
	}
	m.set("core.sim_over_floor."+p.system, float64(r.OptStepTime)/float64(roof.Floor()))
}

// windowErrors returns, for each event-driven system, how far the
// GPT-13B optimizer step at the small window is from the step at the
// reference window, in percent of the reference (positive: the small
// window reads slower). This is error against the simulator's own
// large-window run; the model has no hardware reference.
func windowErrors() (map[string]float64, error) {
	out := map[string]float64{}
	for _, s := range core.SystemNames() {
		if !(point{system: s}).eventDriven() {
			continue
		}
		var steps [2]sim.Time
		for i, units := range []int64{smallWindow, paperWindow} {
			cfg, err := paperConfig(units)
			if err != nil {
				return nil, err
			}
			r, err := point{s, cfg}.simulate()
			if err != nil {
				return nil, fmt.Errorf("window error: %s at %d units: %w", s, units, err)
			}
			steps[i] = r.OptStepTime
		}
		out[s] = 100 * float64(steps[0]-steps[1]) / float64(steps[1])
	}
	return out, nil
}

// measureWAF times the steady-state WAF measurement search.Run takes
// before pricing any candidate: one core.MeasureUpdateWAF per
// over-provisioning value of the default space, at search's default
// length of 3 steps. It returns host ms.
func measureWAF(base core.Config) (float64, error) {
	var err error
	d := hostTime(func() {
		for _, op := range search.DefaultSpace().OverProvision {
			if _, err = core.MeasureUpdateWAF(base.SSD.Nand.Cell, op, 3); err != nil {
				err = fmt.Errorf("WAF at OP %g: %w", op, err)
				return
			}
		}
	})
	return ms(d), err
}
