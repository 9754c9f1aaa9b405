package coloring

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bitcolor/internal/exec"
	"bitcolor/internal/graph"
)

// seqVerify is the sequential verify loop VerifyParallel replaced, kept
// as the oracle for its error text.
func seqVerify(g *graph.CSR, colors []uint16) error {
	n := g.NumVertices()
	if len(colors) != n {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(colors), n)
	}
	for v := 0; v < n; v++ {
		cv := colors[v]
		if cv == 0 {
			return fmt.Errorf("coloring: vertex %d uncolored", v)
		}
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			if colors[w] == cv {
				return fmt.Errorf("coloring: adjacent vertices %d and %d share color %d", v, w, cv)
			}
		}
	}
	return nil
}

// sameVerify checks VerifyParallel at widths 1–4 against the oracle:
// both nil, or both errors with the same text. Each width runs several
// times, since which worker reaches which block first varies per run.
func sameVerify(t *testing.T, label string, g *graph.CSR, colors []uint16) {
	t.Helper()
	want := seqVerify(g, colors)
	for w := 1; w <= 4; w++ {
		for rep := 0; rep < 10; rep++ {
			got := VerifyParallel(g, colors, w)
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Fatalf("%s, width %d: got %v, want %v", label, w, got, want)
			}
		}
	}
}

// greedyColors colors g with sequential greedy, a proper starting point
// for fault injection.
func greedyColors(t *testing.T, g *graph.CSR) []uint16 {
	t.Helper()
	res, err := Greedy(context.Background(), g, MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	return res.Colors
}

// TestVerifyParallelMatchesSequential injects faults into proper
// colorings of random graphs spanning many cursor blocks and requires
// every width to report exactly the sequential first error.
func TestVerifyParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		n := 40 * exec.DispatchBlock
		g := randomGraph(t, n, 4*n, seed)
		proper := greedyColors(t, g)
		rng := rand.New(rand.NewSource(seed))
		sameVerify(t, "proper", g, proper)

		bad := append([]uint16(nil), proper...)
		bad[rng.Intn(n)] = 0
		sameVerify(t, "uncolored vertex", g, bad)

		bad = append([]uint16(nil), proper...)
		conflict(t, g, bad, rng.Intn(n))
		sameVerify(t, "conflicting pair", g, bad)

		// One violation in each of several distant blocks: the lowest
		// must win whichever worker finds its block first.
		bad = append([]uint16(nil), proper...)
		for _, blk := range []int{33, 7, 21, 38} {
			v := blk*exec.DispatchBlock + rng.Intn(exec.DispatchBlock)
			if blk%2 == 0 {
				bad[v] = 0
			} else {
				conflict(t, g, bad, v)
			}
		}
		sameVerify(t, "violations in several blocks", g, bad)

		// Every vertex violating: the first block decides.
		sameVerify(t, "all uncolored", g, make([]uint16, n))
	}
}

// conflict gives the first vertex at or after v that has a neighbor the
// color of that neighbor.
func conflict(t *testing.T, g *graph.CSR, colors []uint16, v int) {
	t.Helper()
	for u := v; u < g.NumVertices(); u++ {
		if adj := g.Neighbors(graph.VertexID(u)); len(adj) > 0 {
			colors[u] = colors[adj[0]]
			return
		}
	}
	t.Fatalf("no vertex with a neighbor at or after %d", v)
}

// A one-way CSR that stores only the edge from the higher endpoint must
// still fail: each stored edge is checked from its own endpoint, with no
// "u < v only" shortcut that would skip it.
func TestVerifyParallelOneWayCSR(t *testing.T) {
	g, err := graph.FromDirectedEdgeList(2, []graph.Edge{{U: 1, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if VerifyParallel(g, []uint16{1, 1}, 2) == nil {
		t.Fatal("one-way edge 1→0 with equal colors passed")
	}
	sameVerify(t, "one-way pair", g, []uint16{1, 1})

	n := 20 * exec.DispatchBlock
	high, low := n-5, 3
	g, err = graph.FromDirectedEdgeList(n, []graph.Edge{{U: graph.VertexID(high), V: graph.VertexID(low)}})
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]uint16, n)
	for v := range colors {
		colors[v] = uint16(v%60000 + 1)
	}
	sameVerify(t, "one-way proper", g, colors)
	colors[high] = colors[low]
	if VerifyParallel(g, colors, 3) == nil {
		t.Fatal("one-way edge from the last block passed")
	}
	sameVerify(t, "one-way conflict", g, colors)
}

func TestVerifyParallelEdgeCases(t *testing.T) {
	empty := &graph.CSR{Offsets: []int64{0}}
	sameVerify(t, "n = 0", empty, nil)
	sameVerify(t, "n = 0, one color", empty, []uint16{1})
	var none graph.CSR
	sameVerify(t, "no offsets", &none, nil)

	g := randomGraph(t, 300, 900, 9)
	colors := greedyColors(t, g)
	sameVerify(t, "short", g, colors[:299])
	sameVerify(t, "long", g, append(colors, 1))
	if err := VerifyParallel(g, colors[:10], 4); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

// Width 1 is the plain loop: no goroutines, no allocations.
func TestVerifyWidthOneZeroAlloc(t *testing.T) {
	g := randomGraph(t, 2000, 8000, 4)
	colors := greedyColors(t, g)
	if avg := testing.AllocsPerRun(10, func() {
		if err := Verify(g, colors); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Verify: %.1f allocs/run, want 0", avg)
	}
}

// countColors's bitmap agrees with a map oracle, including the palette's
// ends 0 (uncolored, never counted) and 65535.
func TestCountColorsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		colors := make([]uint16, rng.Intn(5000))
		span := 1 + rng.Intn(1<<16)
		for i := range colors {
			switch rng.Intn(10) {
			case 0:
				colors[i] = 0
			case 1:
				colors[i] = 65535
			default:
				colors[i] = uint16(rng.Intn(span))
			}
		}
		seen := map[uint16]struct{}{}
		for _, c := range colors {
			if c != 0 {
				seen[c] = struct{}{}
			}
		}
		if got := countColors(colors); got != len(seen) {
			t.Fatalf("trial %d: countColors = %d, map oracle %d", trial, got, len(seen))
		}
	}
	if got := countColors([]uint16{0, 0, 65535, 65535, 1}); got != 2 {
		t.Fatalf("countColors = %d, want 2", got)
	}
}
