package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func prepared(t *testing.T, dir, workload string) {
	t.Helper()
	var stderr bytes.Buffer
	if code := run([]string{"-smoke", "-dir", dir, "-workload", workload, "-seed", "7", "-prepare"}, &stderr, &stderr); code != 0 {
		t.Fatalf("prepare %s: exit %d: %s", workload, code, stderr.String())
	}
}

// lastLine parses the result line a run prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// TestSmokeEveryMetric runs every workload at smoke size, untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// declares, with their units, and passes the correctness gate.
func TestSmokeEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	dir := t.TempDir()
	var names []string
	for _, w := range workloads(true) {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declared, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", declared, names)
	}
	for _, w := range names {
		prepared(t, dir, w)
		for trace, want := range [][]struct{ Name, Unit string }{b.EndToEnd, b.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-smoke", "-dir", dir, "-workload", w, "-seed", "7", "-seconds", "0.2", "-trace", []string{"0", "1"}[trace]}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d: %s", w, trace, code, stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, %d declared", w, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s printed as %+v (present %v), declared unit %s", w, trace, m.Name, got, ok, m.Unit)
				}
			}
			if trace == 0 {
				if got := r.Metrics["colors_vs_greedy"].Value; got != 1 {
					t.Errorf("%s: colors_vs_greedy %v, want exactly 1", w, got)
				}
				for _, m := range want {
					if r.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w, m.Name, r.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestGateCatchesCorruptColoring flips one color of one op's result and
// expects the run to count the failure and exit non-zero.
func TestGateCatchesCorruptColoring(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads(true) {
		prepared(t, dir, w.name)
		var log bytes.Buffer
		res, err := measure(config{workload: w.name, seed: 7, seconds: 0.5, smoke: true, dir: dir, corrupt: true}, w, &log)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: corrupted coloring not caught: correct=%v failed=%d", w.name, res.Correct, res.Failed)
		}
		if !strings.Contains(log.String(), "sequential greedy gives") {
			t.Errorf("%s: gate did not report the differing vertex:\n%s", w.name, log.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-dir", dir, "-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

func TestTailPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 40; i++ {
		ds = append(ds, time.Duration(i))
	}
	if d, p := tailOf(ds); d != 30 || p != 75 {
		t.Errorf("tail of 1..40 = %v at p%v, want 30 at p75 (ten samples beyond)", d, p)
	}
	if d, p := tailOf(ds[:5]); d != 5 || p != 100 {
		t.Errorf("tail of 1..5 = %v at p%v, want the maximum", d, p)
	}
}
