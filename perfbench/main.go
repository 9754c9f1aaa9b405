// Command perfbench is the repository benchmark: three seeded workloads
// on power-law RMAT graphs (text ingest, warm recolor and out-of-core
// streaming), each measured end to end through the public
// API and, in a separate traced run, layer by layer. Every coloring an
// op returns is compared byte for byte with sequential greedy on the same
// graph.
//
// Usage (from the repository root; run.py builds the binary first):
//
//	perfbench -workload NAME -seed N -prepare          # generate and cache the input
//	perfbench -workload NAME -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. The line before it
// stamps the result with the machine and input shape.
//
// Seed 1 is the default. Seed 7919 is held out: measure a claimed gain
// on it too, after the change is written against seed 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"bitcolor"
	"bitcolor/internal/obs"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	prepare  bool
	smoke    bool
	dir      string // cache, graph files and span files live under it
	corrupt  bool   // flips one color of the first checked op after set-up (tests only)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	fs.BoolVar(&cfg.prepare, "prepare", false, "generate and cache the input and its reference coloring, then exit")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs, for the benchmark's own tests")
	fs.StringVar(&cfg.dir, "dir", ".bench_build", "directory for the input cache, graph files and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	w := findWorkload(cfg.workload, cfg.smoke)
	if w == nil {
		var names []string
		for _, w := range workloads(false) {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(names, ", "))
		return 2
	}
	if cfg.prepare {
		if err := prepareInputs(cfg.dir, w, cfg.seed); err != nil {
			fmt.Fprintln(stderr, "perfbench: prepare:", err)
			return 1
		}
		return 0
	}
	res, err := measure(cfg, w, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed the correctness gate\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// gate counts ops and enforces the correctness gate on each.
type gate struct {
	s          *session
	log        io.Writer
	corrupt    bool
	attempted  int
	failed     int
	worstRatio float64 // highest colors ÷ greedy colors of any op
}

// attempt runs one op and checks it. An op fails on an error, on a
// failed verification inside the program, or on a coloring that differs
// from the reference.
func (g *gate) attempt(v variant, tr *tracer, o *bitcolor.Observer) (outcome, bool) {
	out, err := g.s.op(v, tr, o)
	g.attempted++
	if err == nil {
		if g.corrupt {
			g.corrupt = false
			out.colors = append([]uint16(nil), out.colors...)
			out.colors[0]++
		}
		err = g.s.check(out)
		if r := float64(out.num) / float64(g.s.in.refColors); r > g.worstRatio {
			g.worstRatio = r
		}
	}
	if err != nil {
		g.failed++
		fmt.Fprintf(g.log, "op failed: %v\n", err)
		return out, false
	}
	return out, true
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// samples collects what a run measured.
type samples struct {
	setups    []time.Duration
	walls     [][]time.Duration // untraced op wall times, per variant
	traced    [][]time.Duration // traced op wall times, per variant
	observed  []time.Duration   // untraced ops of variant 0 with a live Observer
	layers    []map[string]float64
	stages    []map[string]float64
	tracedOps []int // op ids of the traced ops of variant 0
}

func measure(cfg config, w *workload, log io.Writer) (*result, error) {
	in, err := loadInput(cfg.dir, w, cfg.seed)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(cfg.dir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	s := newSession(w, in, work, workers)
	defer func() {
		s.release()
		for _, ext := range []string{".v2.bcsr", ".v3.bcsr"} {
			os.Remove(s.path(ext))
		}
	}()
	g := &gate{s: s, log: log}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	vs := s.variants()
	sm := &samples{walls: make([][]time.Duration, len(vs)), traced: make([][]time.Duration, len(vs))}
	if err := setUp(s, g, tr, sm); err != nil {
		return nil, err
	}
	g.corrupt = cfg.corrupt
	// One untimed op per variant faults the mapped pages in and warms the
	// heap.
	for _, v := range vs {
		g.attempt(v, nil, nil)
	}
	loop(s, g, tr, sm, time.Duration(cfg.seconds*float64(time.Second)))
	for j := range vs {
		if len(sm.walls[j]) == 0 || cfg.trace && len(sm.traced[j]) == 0 {
			return nil, fmt.Errorf("no successful %s op", vs[j].name)
		}
	}

	var rss syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &rss)
	res := &result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metric{}}
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	p50, w1 := median(sm.walls[0]), median(sm.walls[1])
	tail, tailPct := tailOf(sm.walls[0])
	st := stamp{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		Vertices: in.n, DirectedEdges: in.directedEdges(), EdgeArrayBytes: 4 * in.directedEdges(),
		InputBytes: inputBytes(s), Workers: workers,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: obs.BuildInfo()["revision"], L3Bytes: l3Bytes(),
		Samples: map[string]int{}, OpTailMs: ms(tail), TailPercentile: tailPct, OpP50W1Ms: ms(w1),
		ErrorRate: float64(g.failed) / float64(g.attempted),
	}
	for j, v := range vs {
		st.Samples[v.name] = len(sm.walls[j])
	}
	if !cfg.trace {
		put("throughput_medges_s", float64(in.directedEdges())/p50.Seconds()/1e6)
		put("op_p50_ms", ms(p50))
		put("colors_vs_greedy", g.worstRatio)
		put("peak_rss_mb", float64(rss.Maxrss)/1024)
		put("setup_s", median(sm.setups).Seconds())
	} else {
		for name, v := range medians(append(sm.layers, sm.stages...)) {
			put(name, v)
		}
		put("exec.speedup_vs_w1", float64(w1)/float64(p50))
		put("obs.trace_overhead_frac", float64(median(sm.traced[0]))/float64(p50)-1)
		if len(sm.observed) > 0 {
			put("obs.observer_overhead_frac", float64(median(sm.observed))/float64(p50)-1)
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.name]; !ok {
				put(m.name, 0) // the workload does not exercise this layer
			}
		}
		spanPath := filepath.Join(cfg.dir, "trace", fmt.Sprintf("%s-seed%d.spans.json", w.name, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(spanPath); err != nil {
			return nil, err
		}
		st.SpanFile = spanPath
		printSelfTimes(log, tr, sm.tracedOps, p50, res.Metrics["obs.trace_overhead_frac"].Value)
	}
	stampLine, _ := json.Marshal(st)
	fmt.Fprintf(log, "stamp %s\n", stampLine)
	return res, nil
}

// setUp does the workload's set-up several times. Ingest has no set-up
// of its own: its set-up is a cold op, run after the heap has been
// handed back to the operating system, so that it pays heap growth (the
// first one also fills the page cache with the text).
func setUp(s *session, g *gate, tr *tracer, sm *samples) error {
	for i := 0; i < setupReps; i++ {
		if s.w.kind == "ingest" {
			debug.FreeOSMemory()
			out, ok := g.attempt(s.variants()[0], nil, nil)
			if !ok {
				return errors.New("a cold ingest op failed")
			}
			sm.setups = append(sm.setups, out.wall)
			continue
		}
		d, err := s.setup(tr)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if tr != nil {
			sm.layers = append(sm.layers, setupLayerMetrics(tr.opSpans(tr.op)))
		}
		sm.setups = append(sm.setups, d)
	}
	return nil
}

// loop is one client in a closed loop: it runs ops back to back until
// the run's time is up, interleaving the variants and, in a traced run,
// traced with untraced ops and ops with a live Observer.
func loop(s *session, g *gate, tr *tracer, sm *samples, d time.Duration) {
	vs := s.variants()
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		for j := range vs {
			// Alternate which variant, and which of traced and untraced,
			// goes first, so neither always runs on a warmer cache.
			k := (i + j) % len(vs)
			modes := []bool{false}
			if tr != nil {
				modes = []bool{i%2 == 1, i%2 == 0}
			}
			for _, traced := range modes {
				if !traced {
					out, ok := g.attempt(vs[k], nil, nil)
					if ok {
						sm.walls[k] = append(sm.walls[k], out.wall)
						if k == 0 && out.stages != nil {
							sm.stages = append(sm.stages, stageMetrics(out.stages))
						}
					}
					continue
				}
				out, ok := g.attempt(vs[k], tr, nil)
				if !ok {
					continue
				}
				sm.traced[k] = append(sm.traced[k], out.wall)
				spans := tr.opSpans(tr.op)
				if k == 0 {
					sm.tracedOps = append(sm.tracedOps, tr.op)
					sm.layers = append(sm.layers, opLayerMetrics(s, spans, out))
				} else {
					sm.layers = append(sm.layers, map[string]float64{
						"coloring.engine_w1_ms": ms(durationOf(spans, "coloring.engine."+engineOf(s.w).String())),
					})
				}
			}
		}
		if tr != nil && s.w.kind != "ingest" {
			if out, ok := g.attempt(vs[0], nil, bitcolor.NewObserver()); ok {
				sm.observed = append(sm.observed, out.wall)
			}
		}
	}
}

// stamp records the machine and input shape beside every result, the
// op's tail (the highest percentile with at least ten ops beyond it) and
// the median of the interleaved single-worker ops. Both are reported
// here rather than gated as end-to-end metrics: on a 2-vCPU virtual
// machine they move by up to 0.29 and 0.27 of their medians from run to
// run, more than any bound the benchmark may set. A single-threaded op
// sees every few seconds of interference on the host's cores in full,
// where an op on both workers averages it out.
type stamp struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	Trace          bool           `json:"trace"`
	Vertices       int            `json:"vertices"`
	DirectedEdges  int64          `json:"directed_edges"`
	EdgeArrayBytes int64          `json:"edge_array_bytes"`
	InputBytes     int64          `json:"input_bytes"`
	Workers        int            `json:"workers"`
	NumCPU         int            `json:"num_cpu"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	GoVersion      string         `json:"go_version"`
	Revision       string         `json:"revision"`
	L3Bytes        int64          `json:"l3_bytes"`
	Samples        map[string]int `json:"samples"`
	OpTailMs       float64        `json:"op_tail_ms"`
	TailPercentile float64        `json:"op_tail_percentile"`
	OpP50W1Ms      float64        `json:"op_p50_w1_ms"`
	ErrorRate      float64        `json:"error_rate"`
	SpanFile       string         `json:"span_file,omitempty"`
}

// inputBytes is the size of what the op reads: the SNAP text (ingest),
// the mapped BCSR v2 file (recolor) or the BCSR v3 file (out-of-core).
func inputBytes(s *session) int64 {
	path := s.in.textPath
	switch s.w.kind {
	case "recolor":
		path = s.path(".v2.bcsr")
	case "outofcore":
		path = s.path(".v3.bcsr")
	}
	if st, err := os.Stat(path); err == nil {
		return st.Size()
	}
	return 0
}

// l3Bytes reads the last-level cache size the kernel reports (0 when it
// reports none).
func l3Bytes() int64 {
	data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return 0
	}
	var n int64
	var unit string
	fmt.Sscanf(strings.TrimSpace(string(data)), "%d%s", &n, &unit)
	switch unit {
	case "K":
		n <<= 10
	case "M":
		n <<= 20
	}
	return n
}

// engineOf is the engine a workload's op runs.
func engineOf(w *workload) bitcolor.Engine {
	if w.kind == "outofcore" {
		return bitcolor.EngineSharded
	}
	return bitcolor.EngineDCT
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailOf returns the highest percentile with at least ten samples beyond
// it, and which percentile that is; with ten samples or fewer, the
// slowest sample (the 100th percentile).
func tailOf(ds []time.Duration) (time.Duration, float64) {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	k := n - 11
	return s[k], 100 * float64(k+1) / float64(n)
}

// medians takes, for every key, the median of its values across maps.
func medians(ms []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		sort.Float64s(v)
		if n := len(v); n%2 == 0 {
			out[k] = (v[n/2-1] + v[n/2]) / 2
		} else {
			out[k] = v[n/2]
		}
	}
	return out
}
