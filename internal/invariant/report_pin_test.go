package invariant

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/tracing"
)

const reportDigestsPath = "testdata/report_digests.txt"

// pinFaults are the fault-armed variants of the first configs of the
// pinned sweep: one terminal kind each, a live ECC storm, and the in-place
// checkpoint policy, which prices device-side snapshot traffic.
var pinFaults = []struct {
	name  string
	apply func(*core.Config)
}{
	{"powerloss", func(c *core.Config) {
		c.Fault = fault.Spec{Seed: 3, PowerLossPerSec: 2_000, HorizonMs: 5}
	}},
	{"diefail", func(c *core.Config) {
		c.Fault = fault.Spec{Seed: 5, DieFailPerSec: 2_000, HorizonMs: 5}
	}},
	{"ecc", func(c *core.Config) {
		c.Fault = fault.Spec{Seed: 7, ECCPerSec: 8_000, HorizonMs: 5}
	}},
	{"ckpt-inplace", func(c *core.Config) {
		c.Checkpoint = fault.CheckpointInPlace
		c.Fault = fault.Spec{Seed: 9, PowerLossPerSec: 1_000, DieFailPerSec: 500, ECCPerSec: 2_000, HorizonMs: 5}
	}},
}

// reportDigests renders one line per pinned run: the SHA-256 of the
// full-precision report for invariant.Configs(1, 32) × every system, the
// fault-armed variants, and the Chrome trace of each event-driven system
// at the GPT-13B default. fired counts, per fault variant, the faults its
// runs fired, so the pin cannot pass vacuously.
func reportDigests(t *testing.T) (lines []string, fired map[string]int) {
	t.Helper()
	type job struct {
		label string
		fault string
		sys   string
		cfg   core.Config
		trace bool
	}
	var jobs []job
	cfgs := Configs(1, 32)
	for i, cfg := range cfgs {
		for _, sys := range SystemNames() {
			jobs = append(jobs, job{label: fmt.Sprintf("cfg=%02d", i), sys: sys, cfg: cfg})
		}
	}
	for i, f := range pinFaults {
		cfg := cfgs[i]
		f.apply(&cfg)
		for _, sys := range SystemNames() {
			jobs = append(jobs, job{label: fmt.Sprintf("fault=%s cfg=%02d", f.name, i), fault: f.name, sys: sys, cfg: cfg})
		}
	}
	for _, sys := range []string{OptimStore, HostOffload, Interleaved, CtrlISP} {
		jobs = append(jobs, job{label: "trace=gpt-13b", sys: sys, cfg: core.DefaultConfig(dnn.GPT13B()), trace: true})
	}
	type out struct {
		line  string
		fired int
	}
	results := runner.Map(0, jobs, func(j job) (out, error) {
		var tr *tracing.Trace
		if j.trace {
			tr = tracing.New(j.sys)
			j.cfg.Trace = tr
		}
		sys, err := core.NewSystem(j.sys, j.cfg)
		if err != nil {
			return out{}, err
		}
		r, err := sys.Run()
		if err != nil {
			return out{}, err
		}
		var sum [sha256.Size]byte
		if j.trace {
			var buf bytes.Buffer
			if err := tracing.WriteChrome(&buf, tr); err != nil {
				return out{}, err
			}
			sum = sha256.Sum256(buf.Bytes())
		} else {
			sum = sha256.Sum256([]byte(fmt.Sprintf("%+v", *r)))
		}
		n := r.PowerLossFaults + r.DieFailFaults + r.ECCFaults
		return out{fmt.Sprintf("%s system=%s sha256=%x", j.label, j.sys, sum), n}, nil
	})
	fired = map[string]int{}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("%s %s: %v", jobs[i].label, jobs[i].sys, res.Err)
		}
		lines = append(lines, res.Value.line)
		if jobs[i].fault != "" {
			fired[jobs[i].fault] += res.Value.fired
		}
	}
	return lines, fired
}

// TestReportDigestPin pins every simulated report, fault-armed report and
// Chrome trace to the committed digests at full precision, so a refactor
// of the system models can prove it changed no output bit. The golden
// quick suite is rounded and the determinism tests compare a run only
// with itself; this pin holds across commits. Regenerate with
// UPDATE_GOLDEN=1 only for a deliberate output change.
func TestReportDigestPin(t *testing.T) {
	lines, fired := reportDigests(t)
	for _, f := range pinFaults {
		if fired[f.name] == 0 {
			t.Errorf("fault variant %s fired no faults", f.name)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(reportDigestsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(reportDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("pinned %d digests, produced %d", len(want), len(lines))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			bad++
			t.Errorf("digest mismatch:\n  want %s\n  got  %s", want[i], lines[i])
		}
	}
	if bad > 0 {
		t.Logf("%d/%d digests differ", bad, len(lines))
	}
}
