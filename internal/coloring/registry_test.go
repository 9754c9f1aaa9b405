package coloring

import (
	"context"
	"errors"
	"hash/fnv"
	"testing"
	"time"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
	"bitcolor/internal/metrics"
)

// graphChecksum fingerprints the CSR so cancellation tests can assert the
// engines never mutate their input.
func graphChecksum(g *graph.CSR) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, o := range g.Offsets {
		put(uint64(o))
	}
	for _, e := range g.Edges {
		put(uint64(e))
	}
	return h.Sum64()
}

func TestRegistryRoundTrip(t *testing.T) {
	engines := Engines()
	if len(engines) == 0 {
		t.Fatal("registry is empty")
	}
	names := EngineNames()
	if len(names) != len(engines) {
		t.Fatalf("EngineNames %d vs Engines %d", len(names), len(engines))
	}
	for i, info := range engines {
		if info.Name != names[i] {
			t.Fatalf("order mismatch at %d: %q vs %q", i, info.Name, names[i])
		}
		if info.Run == nil {
			t.Fatalf("%s: nil Run", info.Name)
		}
		if info.Description == "" || info.Stats == "" {
			t.Fatalf("%s: missing metadata", info.Name)
		}
		byName, ok := Lookup(info.Name)
		if !ok || byName.Name != info.Name {
			t.Fatalf("Lookup(%q) failed", info.Name)
		}
		byIdx, ok := LookupIndex(i)
		if !ok || byIdx.Name != info.Name {
			t.Fatalf("LookupIndex(%d) = %q, want %q", i, byIdx.Name, info.Name)
		}
		if Index(info.Name) != i {
			t.Fatalf("Index(%q) = %d, want %d", info.Name, Index(info.Name), i)
		}
	}
	if _, ok := Lookup("no-such-engine"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
	if _, ok := LookupIndex(len(engines)); ok {
		t.Fatal("LookupIndex accepted an out-of-range index")
	}
	if _, ok := LookupIndex(-1); ok {
		t.Fatal("LookupIndex accepted a negative index")
	}
	if Index("no-such-engine") != -1 {
		t.Fatal("Index accepted an unknown name")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(EngineInfo{Name: "greedy", Run: func(context.Context, *graph.CSR, Options) (*Result, metrics.RunStats, error) {
		return nil, metrics.RunStats{}, nil
	}})
}

// TestRegistryEnginesProduceProperColorings smoke-runs every registered
// engine through the uniform contract on the same graph.
func TestRegistryEnginesProduceProperColorings(t *testing.T) {
	g := randomGraph(t, 500, 2500, 7)
	for _, info := range Engines() {
		res, _, err := info.Run(context.Background(), g, Options{Seed: 11, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if err := Verify(g, res.Colors); err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
	}
}

// TestRegistryCancelBeforeRun is the acceptance criterion: every engine
// must return ctx.Err() on a pre-cancelled context, without touching the
// graph.
func TestRegistryCancelBeforeRun(t *testing.T) {
	g := randomGraph(t, 200, 800, 3)
	sum := graphChecksum(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, info := range Engines() {
		res, _, err := info.Run(ctx, g, Options{Seed: 1, Workers: 2})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", info.Name, err)
		}
		if res != nil {
			t.Fatalf("%s: returned a result alongside cancellation", info.Name)
		}
	}
	if graphChecksum(g) != sum {
		t.Fatal("an engine mutated the input graph")
	}
}

// TestRegistryCancelMidRun cancels every engine a moment after it starts
// on a graph large enough that none finishes first on a typical CI box,
// and asserts the engine notices within a bounded time and leaves the
// graph untouched. An engine that wins the race and completes is
// tolerated (timing noise) but logged.
func TestRegistryCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph cancellation sweep")
	}
	g := randomGraph(t, 120_000, 600_000, 5)
	sum := graphChecksum(g)
	const bound = 30 * time.Second
	for _, info := range Engines() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(2 * time.Millisecond)
				cancel()
			}()
			type outcome struct {
				res *Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, _, err := info.Run(ctx, g, Options{Seed: 9, Workers: 4})
				done <- outcome{res, err}
			}()
			select {
			case o := <-done:
				if o.err == nil {
					t.Logf("%s finished before cancellation took effect", info.Name)
					return
				}
				if !errors.Is(o.err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", o.err)
				}
				if o.res != nil {
					t.Fatal("result returned alongside cancellation")
				}
			case <-time.After(bound):
				t.Fatalf("engine did not return within %v of cancellation", bound)
			}
		})
	}
	if graphChecksum(g) != sum {
		t.Fatal("an engine mutated the input graph")
	}
}

// TestRegistryOptionsDefaults checks the palette default: MaxColors <= 0
// must mean MaxColorsDefault, not zero colors.
func TestRegistryOptionsDefaults(t *testing.T) {
	g := randomGraph(t, 100, 400, 1)
	info, ok := Lookup("bitwise")
	if !ok {
		t.Fatal("bitwise missing")
	}
	res, _, err := info.Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryStatsContract checks that parallel engines fill Workers
// and Rounds while sequential ones leave RunStats zero-valued.
func TestRegistryStatsContract(t *testing.T) {
	g := randomGraph(t, 400, 1600, 2)
	for _, info := range Engines() {
		_, st, err := info.Run(context.Background(), g, Options{Seed: 4, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		if info.Parallel && st.Workers == 0 {
			t.Fatalf("%s: parallel engine reported zero workers", info.Name)
		}
		if !info.Parallel && st.Workers != 0 {
			t.Fatalf("%s: sequential engine reported %d workers", info.Name, st.Workers)
		}
	}
}

// TestRegistryShardedGrantClampsShards pins the sharded engine's short
// pool grant to the shard count the run really uses: on a 3-vertex
// graph Shards=8 clamps to 3, Demand asks 3 shards × 3 workers, and a
// 6-slot pool's grant must split into 2 workers per shard, not 6/8.
func TestRegistryShardedGrantClampsShards(t *testing.T) {
	g := pathGraph(t, 3)
	info, ok := Lookup("sharded")
	if !ok {
		t.Fatal("sharded missing")
	}
	opts := Options{Shards: 8, Workers: 4}
	if want := info.Demand(g, opts); want != 9 {
		t.Fatalf("Demand = %d, want 9", want)
	}
	opts.Pool = exec.NewPool(6)
	res, st, err := info.Run(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 3 || st.Workers != 2 {
		t.Fatalf("shards=%d workers=%d, want 3 shards × 2 workers", st.Shards, st.Workers)
	}
}
