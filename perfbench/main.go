// Command perfbench is the repository benchmark. It measures what the
// simulator costs its users on one of three workloads and prints, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. The line before it describes the run:
// workload, seed, host fingerprint, sample counts and a digest of the
// simulated outputs.
//
//	go run . -workload sweep -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics, measured with tracing
// off. With -trace 1 a separate run prints the per-layer metrics, part of
// them from traced simulations. Every figure is taken from outside the
// simulator: the benchmark times calls into each layer's public functions
// and reads core.Report and tracing.Trace. README.md defines each metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/units"
)

// setupRuns is how many cold set-ups setup_s is the median of: this
// process's own and the rest in fresh processes of the same binary.
const setupRuns = 3

// minPointSamples is the fewest points a pass must hold for point_ms_p50
// to be the median over single points. The median of a few distinct
// points is one particular point's time, and it jumps between two of them
// when their order changes; such passes (paper-step's five systems, and
// tune, whose points are not visible) give one sample each instead, the
// pass's host time ÷ its points.
const minPointSamples = 100

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runInfo is printed on the line before the result.
type runInfo struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Host     host    `json:"host"`
	// Digest hashes every simulated field of the cold pass; a change that
	// only makes the simulator run faster must leave it unchanged.
	Digest string `json:"digest"`
	// TracedDigest and UntracedDigest (-trace 1) cover the point set the
	// traced run simulated both ways; they must be equal.
	TracedDigest   string `json:"traced_digest,omitempty"`
	UntracedDigest string `json:"untraced_digest,omitempty"`
	// Passes and PointSamples count the timed passes and the samples
	// point_ms_p50 is the median of; SetupSamples are the cold set-ups
	// setup_s is the median of.
	Passes       int       `json:"passes,omitempty"`
	PointSamples int       `json:"point_samples,omitempty"`
	SetupSamples []float64 `json:"setup_samples,omitempty"`
	// CPUShare is host time ÷ wall time over the timed passes: near 1 on
	// a quiet host, lower while the simulating thread waited for a CPU.
	CPUShare float64 `json:"cpu_share,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload: sweep, paper-step or tune")
	seed := flag.Int64("seed", 1, "input seed: sweep draws its configurations from it, and every workload picks its rerun points with it")
	seconds := flag.Float64("seconds", 10, "length of the measured region in seconds")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	setupOnly := flag.Bool("setup-only", false, "set up, print the seconds it took and exit")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *setupOnly); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, setupOnly bool) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds %g: want a positive length", seconds)
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	// Set-up ends after one untimed cold pass: first-use allocation and
	// page faults land here, not in the measured region.
	cold := w.run()
	setup := threadCPU().Seconds()
	if setupOnly {
		fmt.Println(setup)
		return nil
	}

	budget := time.Duration(seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(seed))
	info := runInfo{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Host: fingerprint(), Digest: w.digest(cold)}
	var res result
	if trace == 0 {
		res, err = endToEnd(w, cold, setup, budget, rng, &info)
	} else {
		res, err = perLayer(w, cold, budget, rng, &info)
	}
	if err != nil {
		return err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, v := range []any{info, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// endToEnd times passes for the budget with tracing off, then measures
// what stays outside the timed region: the window error and the cold
// set-ups of fresh processes.
func endToEnd(w workload, cold *pass, setup float64, budget time.Duration, rng *rand.Rand, info *runInfo) (result, error) {
	passes, failed := timed(w, cold, budget, rng)

	attempted := 0
	var alloc uint64
	var hostSum, wallSum time.Duration
	var pps, pointMS, rss []float64
	for _, p := range passes {
		attempted += p.points
		alloc += p.gc.allocBytes
		hostSum, wallSum = hostSum+p.host, wallSum+p.wall
		pps = append(pps, float64(p.points)/p.host.Seconds())
		rss = append(rss, p.peakRSSMB)
		if len(p.pointMS) >= minPointSamples {
			pointMS = append(pointMS, p.pointMS...)
		} else {
			pointMS = append(pointMS, ms(p.host)/float64(p.points))
		}
	}

	errs, err := windowErrors()
	if err != nil {
		return result{}, err
	}
	var worst float64
	for _, e := range errs {
		worst = max(worst, math.Abs(e))
	}

	setups, err := coldSetups(info.Workload, info.Seed, setupRuns-1)
	if err != nil {
		return result{}, err
	}
	setups = append([]float64{setup}, setups...)

	m := endToEndMetrics()
	m.set("points_per_s", median(pps))
	m.set("point_ms_p50", median(pointMS))
	m.set("alloc_mb_per_point", float64(alloc)/units.BytesPerMB/float64(attempted))
	m.set("peak_rss_mb", median(rss))
	m.set("setup_s", median(setups))
	m.set("window_err_pct", worst)
	info.Passes, info.PointSamples, info.SetupSamples = len(passes), len(pointMS), setups
	info.CPUShare = hostSum.Seconds() / wallSum.Seconds()
	return result{Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func perLayer(w workload, cold *pass, budget time.Duration, rng *rand.Rand, info *runInfo) (result, error) {
	m := perLayerMetrics()
	p, err := w.profile(cold, budget, rng, m)
	if err != nil {
		return result{}, err
	}
	info.UntracedDigest, info.TracedDigest = p.untracedDigest, p.tracedDigest
	return result{Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

// coldSetups runs this binary n times with -setup-only, one process after
// the other, and returns the set-up seconds each printed.
func coldSetups(name string, seed int64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("cold set-up process: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, errors.New("cold set-up process printed no seconds")
		}
		out = append(out, v)
	}
	return out, nil
}
