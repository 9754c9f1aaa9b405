package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"

	"bitcolor/internal/metrics"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// written by the watchdog goroutine while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunRegistryLifecycle(t *testing.T) {
	rr := NewRunRegistry(8)
	o := New(WithRunID("life"))
	rec := rr.Begin(context.Background(), o, "parallelbitwise", 1000, 5000)
	if rec == nil || rec.ID() != "life.1" {
		t.Fatalf("record id = %q, want life.1", rec.ID())
	}

	live := rr.LiveRuns()
	if len(live) != 1 || live[0].Engine != "parallelbitwise" || live[0].Vertices != 1000 {
		t.Fatalf("live = %+v", live)
	}
	if live[0].Progress.State != "running" {
		t.Fatalf("initial state = %q", live[0].Progress.State)
	}

	// Pool negotiation states: queued is visible, then admitted.
	rec.Queued(4)
	if p, ok := rr.ProgressOf("life.1"); !ok || p.State != "queued" {
		t.Fatalf("queued progress = %+v ok=%v", p, ok)
	}
	rec.Admitted(4, 2, 3*time.Millisecond, func() PoolStatus {
		return PoolStatus{Name: "p", Cap: 2, InUse: 2, QueueDepth: 1}
	})
	live = rr.LiveRuns()
	if live[0].Demand != 4 || live[0].Granted != 2 || live[0].Progress.State != "running" {
		t.Fatalf("admitted live = %+v", live[0])
	}
	if live[0].Pool == nil || live[0].Pool.QueueDepth != 1 {
		t.Fatalf("pool status = %+v", live[0].Pool)
	}

	rec.Finish(17, metrics.RunStats{Workers: 2, Rounds: 3, ConflictsFound: 5, ConflictsRepaired: 5}, nil)
	if got := rr.LiveRuns(); len(got) != 0 {
		t.Fatalf("still live after Finish: %+v", got)
	}
	recent := rr.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent = %+v", recent)
	}
	s := recent[0]
	if s.ID != "life.1" || s.Status != "ok" || s.Colors != 17 || s.Rounds != 3 ||
		s.Workers != 2 || s.Demand != 4 || s.Granted != 2 || s.QueueWaitMS < 2.9 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Observer() != o {
		t.Fatal("summary lost its observer (trace would 404)")
	}

	// Finish is idempotent: a double call must not duplicate the summary.
	rec.Finish(17, metrics.RunStats{}, nil)
	if got := rr.Recent(); len(got) != 1 {
		t.Fatalf("double Finish duplicated the summary: %d entries", len(got))
	}
}

func TestRunRegistryNilSafety(t *testing.T) {
	var rr *RunRegistry
	var rec *RunRecord
	if rr.Begin(context.Background(), New(), "x", 1, 1) != nil {
		t.Fatal("nil registry Begin != nil")
	}
	if NewRunRegistry(4).Begin(context.Background(), nil, "x", 1, 1) != nil {
		t.Fatal("nil observer Begin != nil")
	}
	// All record methods must be nil-receiver safe (the unobserved path).
	rec.Queued(1)
	rec.Admitted(1, 1, 0, nil)
	rec.AttachShards(NewShardSet(1))
	rec.SetRound(2)
	rec.Finish(0, metrics.RunStats{}, nil)
	if got := rec.Progress(); got.State != "" || got.Vertices != 0 || got.Lanes != nil {
		t.Fatalf("nil record progress = %+v", got)
	}
	if rr.LiveRuns() != nil || rr.Recent() != nil || rr.Observer("x") != nil {
		t.Fatal("nil registry views not empty")
	}
	stop := rr.StartWatchdog(WatchdogConfig{})
	stop()
}

func TestRunRegistryRingBound(t *testing.T) {
	rr := NewRunRegistry(3)
	o := New(WithRunID("ring"))
	for i := 0; i < 5; i++ {
		rec := rr.Begin(context.Background(), o, fmt.Sprintf("e%d", i), 1, 1)
		rec.Finish(1, metrics.RunStats{}, nil)
	}
	recent := rr.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring length = %d, want 3", len(recent))
	}
	// Most recent first; the two oldest runs were evicted.
	for i, want := range []string{"e4", "e3", "e2"} {
		if recent[i].Engine != want {
			t.Fatalf("recent[%d] = %s, want %s", i, recent[i].Engine, want)
		}
	}
	if rr.Observer("ring.1") != nil {
		t.Fatal("evicted run still resolvable")
	}
	if rr.Observer("ring.5") == nil {
		t.Fatal("retained run not resolvable")
	}
}

func TestRunRecordLiveProgress(t *testing.T) {
	rr := NewRunRegistry(4)
	rec := rr.Begin(context.Background(), New(WithRunID("prog")), "dct", 100, 200)
	ss := NewShardSet(2)
	rec.AttachShards(ss)
	rec.SetRound(2)

	// Simulate two worker lanes at a publish checkpoint.
	for w, n := range []int64{30, 12} {
		sh := ss.Shard(w)
		sh.Add(CtrVertices, n)
		sh.Inc(CtrBlocks)
		sh.Add(CtrConflictsFound, 2)
		sh.PublishAll()
	}
	p := rec.Progress()
	if p.Vertices != 42 || p.Blocks != 2 || p.Round != 2 || p.ConflictsFound != 4 {
		t.Fatalf("progress = %+v", p)
	}
	if len(p.Lanes) != 2 || p.Lanes[0].Vertices != 30 || p.Lanes[1].Vertices != 12 {
		t.Fatalf("lanes = %+v", p.Lanes)
	}

	// Unpublished increments stay invisible until the next checkpoint:
	// the mirror trails the plain counter, never the other way round.
	ss.Shard(0).Add(CtrVertices, 1000)
	if got := rec.Progress().Vertices; got != 42 {
		t.Fatalf("unpublished increment leaked into progress: %d", got)
	}

	// Finish detaches the shards: later scrapes must not read the (now
	// recyclable) set even after it is reset and reused.
	rec.Finish(5, metrics.RunStats{Workers: 2}, nil)
	ss.Reset()
	ss.EnableLive()
	ss.Shard(0).Add(CtrVertices, 7)
	ss.Shard(0).PublishAll()
	if got := rec.Progress(); got.Vertices != 0 || len(got.Lanes) != 0 {
		t.Fatalf("finished record read the recycled ShardSet: %+v", got)
	}
}

// A run that finishes after LiveRuns copied the live list, but before
// it read the run, is left out rather than shown running with zero
// progress: live progress never goes backwards.
func TestLiveRunsSkipsRunFinishedMidScrape(t *testing.T) {
	rr := NewRunRegistry(4)
	rec := rr.Begin(context.Background(), New(WithRunID("mid")), "dct", 100, 200)
	ss := NewShardSet(1)
	rec.AttachShards(ss)
	ss.Shard(0).Add(CtrVertices, 64)
	ss.Shard(0).PublishAll()
	if live := rr.LiveRuns(); len(live) != 1 || live[0].Progress.Vertices != 64 {
		t.Fatalf("live runs = %+v", live)
	}
	// Finish's first half: shards detached, not yet deregistered.
	rec.mu.Lock()
	rec.done, rec.shards = true, nil
	rec.mu.Unlock()
	if live := rr.LiveRuns(); len(live) != 0 {
		t.Fatalf("finished run still listed live: %+v", live)
	}
}

func TestRunStatusClassification(t *testing.T) {
	rr := NewRunRegistry(8)
	o := New(WithRunID("status"))
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{context.Canceled, "cancelled"},
		{context.DeadlineExceeded, "cancelled"},
		{fmt.Errorf("wrapped: %w", context.Canceled), "cancelled"},
		{errors.New("palette exhausted"), "error"},
	}
	for _, c := range cases {
		rec := rr.Begin(context.Background(), o, "e", 1, 1)
		rec.Finish(0, metrics.RunStats{}, c.err)
	}
	recent := rr.Recent() // most recent first: reverse of cases
	for i, c := range cases {
		got := recent[len(cases)-1-i]
		if got.Status != c.want {
			t.Fatalf("case %d (%v): status %q, want %q", i, c.err, got.Status, c.want)
		}
		if c.err != nil && got.Error == "" {
			t.Fatalf("case %d: error text lost", i)
		}
	}
}

func TestWatchdogStall(t *testing.T) {
	rr := NewRunRegistry(4)
	var logbuf syncBuffer
	o := New(WithRunID("stalled-run"), WithLogHandler(slog.NewJSONHandler(&logbuf, nil)))
	rec := rr.Begin(context.Background(), o, "dct", 100, 200)
	defer rec.Finish(0, metrics.RunStats{}, nil)

	stop := rr.StartWatchdog(WatchdogConfig{Interval: 5 * time.Millisecond, Stall: 20 * time.Millisecond})
	defer stop()

	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logbuf.String(), "progress stalled") {
		if time.Now().After(deadline) {
			t.Fatalf("no stall warning; log:\n%s", logbuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	out := logbuf.String()
	if !strings.Contains(out, `"run_id":"stalled-run"`) {
		t.Fatalf("warning not run_id-stamped:\n%s", out)
	}
	// Warn-once: more scan intervals must not repeat the warning.
	time.Sleep(60 * time.Millisecond)
	if n := strings.Count(logbuf.String(), "progress stalled"); n != 1 {
		t.Fatalf("stall warned %d times, want 1", n)
	}
}

func TestWatchdogDeadlineFraction(t *testing.T) {
	rr := NewRunRegistry(4)
	var logbuf syncBuffer
	o := New(WithRunID("deadline-run"), WithLogHandler(slog.NewJSONHandler(&logbuf, nil)))
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rec := rr.Begin(ctx, o, "speculative", 100, 200)
	defer rec.Finish(0, metrics.RunStats{}, nil)

	stop := rr.StartWatchdog(WatchdogConfig{Interval: 5 * time.Millisecond, DeadlineFraction: 0.25})
	defer stop()

	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logbuf.String(), "deadline budget") {
		if time.Now().After(deadline) {
			t.Fatalf("no deadline warning; log:\n%s", logbuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(logbuf.String(), `"run_id":"deadline-run"`) {
		t.Fatalf("warning not run_id-stamped:\n%s", logbuf.String())
	}
}

func TestObserverAnnotateInTrace(t *testing.T) {
	o := New(WithRunID("annotated"))
	o.Annotate("cancelled", true)
	o.Annotate("note", "partial")
	var buf bytes.Buffer
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	if tf.OtherData["cancelled"] != true || tf.OtherData["note"] != "partial" ||
		tf.OtherData["run_id"] != "annotated" {
		t.Fatalf("otherData = %+v", tf.OtherData)
	}
	// Nil-safety mirrors the rest of the Observer surface.
	var nilO *Observer
	nilO.Annotate("k", "v")
	if nilO.Annotations() != nil {
		t.Fatal("nil observer annotations != nil")
	}
}

func TestRegisterInfoConstLabels(t *testing.T) {
	r := NewRegistry()
	r.RegisterInfo("test_build_info", "Build identity.", map[string]string{
		"go_version": "go1.22",
		"revision":   "abc123",
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `test_build_info{go_version="go1.22",revision="abc123"} 1`) {
		t.Fatalf("info family rendering:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE test_build_info gauge") {
		t.Fatalf("info family missing TYPE line:\n%s", out)
	}
}

func TestPlaneBuildInfo(t *testing.T) {
	bi := BuildInfo()
	for _, k := range []string{"go_version", "revision", "module_version"} {
		if bi[k] == "" {
			t.Fatalf("BuildInfo missing %s: %+v", k, bi)
		}
	}
	var buf bytes.Buffer
	if err := Plane().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "bitcolor_build_info{") || !strings.Contains(out, "go_version=") {
		t.Fatalf("plane scrape missing build info:\n%s", out)
	}
	for _, fam := range []string{
		"bitcolor_runs_inflight", "bitcolor_runs_completed_total",
		"bitcolor_pool_cap", "bitcolor_pool_admission_wait_seconds",
	} {
		if !strings.Contains(out, "# TYPE "+fam) {
			t.Fatalf("plane scrape missing %s:\n%s", fam, out)
		}
	}
}

func TestDefaultRegistryPlaneCounters(t *testing.T) {
	// Runs through the DEFAULT registry move the plane's inflight gauge
	// and completed counter (isolated registries must not).
	o := New(WithRunID("plane-counters"))
	before := Plane().Counter(famRunsCompleted).Value("ok")
	rec := Runs().Begin(context.Background(), o, "greedy", 10, 20)
	rec.Finish(3, metrics.RunStats{}, nil)
	after := Plane().Counter(famRunsCompleted).Value("ok")
	if after != before+1 {
		t.Fatalf("completed counter %d -> %d, want +1", before, after)
	}
	sum := Runs().Recent()
	if len(sum) == 0 || sum[0].Engine != "greedy" {
		t.Fatalf("default flight recorder missing the run: %+v", sum)
	}
}
