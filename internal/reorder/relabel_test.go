package reorder

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
)

// sortApply is the relabel as it was written before the transpose
// kernel: translate every list through p, then sort each one. It is the
// oracle the kernel must match on every valid CSR.
func sortApply(g *graph.CSR, p *Permutation) *graph.CSR {
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	for old := 0; old < n; old++ {
		offsets[p.NewID[old]+1] = int64(g.Degree(graph.VertexID(old)))
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	edges := make([]graph.VertexID, g.NumEdges())
	for old := 0; old < n; old++ {
		dst := edges[offsets[p.NewID[old]]:]
		for i, d := range g.Neighbors(graph.VertexID(old)) {
			dst[i] = p.NewID[d]
		}
	}
	out := &graph.CSR{Offsets: offsets, Edges: edges}
	out.SortEdges()
	return out
}

// randomPermutation is a uniformly shuffled renaming of n vertices.
func randomPermutation(n int, seed int64) *Permutation {
	p := &Permutation{NewID: make([]graph.VertexID, n), OldID: make([]graph.VertexID, n)}
	for i, v := range rand.New(rand.NewSource(seed)).Perm(n) {
		p.NewID[i] = graph.VertexID(v)
		p.OldID[v] = graph.VertexID(i)
	}
	return p
}

func directed(t testing.TB, n int, edges []graph.Edge) *graph.CSR {
	t.Helper()
	g, err := graph.FromDirectedEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// cycles is a directed graph of k random directed cycles through all n
// vertices: every in-degree equals its out-degree (k), but no arc has
// its reverse unless by chance.
func cycles(t testing.TB, n, k int, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for c := 0; c < k; c++ {
		order := rng.Perm(n)
		for i, u := range order {
			edges = append(edges, graph.Edge{U: graph.VertexID(u), V: graph.VertexID(order[(i+1)%n])})
		}
	}
	return directed(t, n, edges)
}

// spokes has every vertex but the hub point at the hub, several times
// over, and the hub point at nobody: degrees cannot balance.
func spokes(t testing.TB, n, k int) *graph.CSR {
	var edges []graph.Edge
	for r := 0; r < k; r++ {
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(v), V: 0})
		}
	}
	return directed(t, n, edges)
}

// multi is a symmetric graph with duplicate edges, self loops (stored
// once or twice) and isolated vertices, in unsorted list order.
func multi(t testing.TB, n, m int, seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for i := 0; i < m; i++ {
		u, v := graph.VertexID(rng.Intn(n-n/4)), graph.VertexID(rng.Intn(n-n/4))
		edges = append(edges, graph.Edge{U: u, V: v})
		if u != v || i%2 == 0 {
			edges = append(edges, graph.Edge{U: v, V: u})
		}
		if i%7 == 0 { // a duplicate of the pair just added
			edges = append(edges, graph.Edge{U: u, V: v}, graph.Edge{U: v, V: u})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return directed(t, n, edges)
}

// relabelCase is one input every relabel entry point is checked on;
// symmetric says whether the graph is its own transpose.
type relabelCase struct {
	name      string
	g         *graph.CSR
	symmetric bool
}

func relabelCases(t testing.TB) []relabelCase {
	rmat, err := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []relabelCase{
		{"random", randomGraph(t, 300, 3000, 1), true},
		{"random-large", randomGraph(t, 1500, 20000, 2), true},
		{"rmat-hubs", rmat, true},
		{"multi-loops-isolated", multi(t, 400, 4000, 3), true},
		{"three-cycle", directed(t, 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}), false},
		{"dense-cycles", cycles(t, 200, 8, 4), false},
		{"one-way-spokes", spokes(t, 3, 1), false},
		{"dense-spokes", spokes(t, 100, 12), false},
		{"empty", &graph.CSR{Offsets: []int64{0}}, true},
		{"no-offsets", &graph.CSR{}, true},
		{"single", directed(t, 1, nil), true},
		{"single-loops", directed(t, 1, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 0}, {U: 0, V: 0}}), true},
	}
}

func sameCSR(a, b *graph.CSR) bool {
	return slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Edges, b.Edges)
}

// Every relabel entry point returns the oracle's CSR at widths 1-4, on
// symmetric and asymmetric inputs, for the DBG renaming and a random
// one, and leaves its input alone.
func TestRelabelMatchesSortOracle(t *testing.T) {
	for _, tc := range relabelCases(t) {
		if err := tc.g.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := tc.g.IsUndirected(); got != tc.symmetric {
			t.Fatalf("%s: IsUndirected %v, case says %v", tc.name, got, tc.symmetric)
		}
		in := graph.CSR{Offsets: slices.Clone(tc.g.Offsets), Edges: slices.Clone(tc.g.Edges)}
		n := tc.g.NumVertices()
		perms := map[string]*Permutation{"dbg": DegreeDescending(tc.g), "random": randomPermutation(n, int64(n))}
		for pname, p := range perms {
			want := sortApply(tc.g, p)
			for w := 1; w <= 4; w++ {
				t.Run(fmt.Sprintf("%s/%s/w=%d", tc.name, pname, w), func(t *testing.T) {
					check := func(what string, got *graph.CSR) {
						t.Helper()
						if !sameCSR(got, want) {
							t.Fatalf("%s differs from the sort oracle:\n got %v %v\nwant %v %v",
								what, got.Offsets, got.Edges, want.Offsets, want.Edges)
						}
					}
					check("relabel", relabel(tc.g, p, w))
					check("ApplyParallel", ApplyParallel(tc.g, p, w))
					if w == 1 {
						check("Apply", Apply(tc.g, p))
					}
					if pname == "dbg" {
						gotG, gotP := DBGParallel(tc.g, w)
						check("DBGParallel", gotG)
						if !slices.Equal(gotP.NewID, p.NewID) {
							t.Fatal("DBGParallel permutation differs from DegreeDescending")
						}
						dbgG, _ := DBG(tc.g)
						check("DBG", dbgG)
					}
					if !sameCSR(tc.g, &in) {
						t.Fatal("relabel modified its input")
					}
				})
			}
		}
	}
}

// The symmetry check decides which graphs come back from the first
// transpose: exactly the symmetric ones, at every width.
func TestTransposeSymmetryCheck(t *testing.T) {
	for _, tc := range relabelCases(t) {
		p := DegreeDescending(tc.g)
		for w := 1; w <= 4; w++ {
			if got := transpose(tc.g, p, w).symmetric(); got != tc.symmetric {
				t.Errorf("%s w=%d: symmetric() = %v, want %v", tc.name, w, got, tc.symmetric)
			}
		}
	}
}

// A list longer than the int32 write cursors can address must panic
// before any write, not wrap; maxListEntries stands in for 2^31-1.
func TestRelabelListLimit(t *testing.T) {
	defer func(old int64) { maxListEntries = old }(maxListEntries)
	var edges []graph.Edge
	for v := graph.VertexID(1); v <= 5; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v}, graph.Edge{U: v, V: 0})
	}
	for u := graph.VertexID(1); u <= 4; u++ { // a K4 on the leaves keeps width 2 allowed
		for v := graph.VertexID(1); v <= 4; v++ {
			if u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	star := directed(t, 6, edges) // the hub's list takes 5 entries, the others at most 4
	p := DegreeDescending(star)
	for w := 1; w <= 2; w++ {
		maxListEntries = 5
		if got := relabel(star, p, w); !sameCSR(got, sortApply(star, p)) {
			t.Fatalf("w=%d at the limit: got %v %v", w, got.Offsets, got.Edges)
		}
		maxListEntries = 4
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("w=%d: a 5-entry list under a limit of 4 did not panic", w)
				}
			}()
			relabel(star, p, w)
		}()
	}
}

// The width split must give every worker its own range and cover [0,n)
// in order, whatever the degree skew.
func TestEdgeBalancedRanges(t *testing.T) {
	for _, tc := range relabelCases(t) {
		p := DegreeDescending(tc.g)
		for w := 1; w <= 6; w++ {
			b := edgeBalancedRanges(tc.g, p, w)
			if len(b) != w+1 || b[0] != 0 || b[w] != tc.g.NumVertices() || !slices.IsSorted(b) {
				t.Fatalf("%s w=%d: bounds %v", tc.name, w, b)
			}
		}
	}
}

// FuzzApply checks the kernel against the sort oracle on any valid CSR
// (directed, duplicate edges, self loops, unsorted lists) and any
// renaming, at widths 1-4.
func FuzzApply(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 2, 2, 0}, int64(1))
	f.Add(uint8(4), []byte{0, 1, 1, 0, 2, 2, 2, 2, 3, 1, 1, 3, 0, 1, 1, 0}, int64(2))
	f.Add(uint8(5), []byte{1, 0, 2, 0, 3, 0, 4, 0, 1, 0}, int64(3))
	f.Add(uint8(0), []byte{}, int64(4))
	f.Add(uint8(1), []byte{0, 0}, int64(5))
	f.Fuzz(func(t *testing.T, nRaw uint8, pairs []byte, seed int64) {
		n := int(nRaw % 64)
		var edges []graph.Edge
		for i := 0; n > 0 && i+1 < len(pairs); i += 2 {
			edges = append(edges, graph.Edge{U: graph.VertexID(int(pairs[i]) % n), V: graph.VertexID(int(pairs[i+1]) % n)})
		}
		g := directed(t, n, edges)
		for _, p := range []*Permutation{randomPermutation(n, seed), DegreeDescending(g)} {
			want := sortApply(g, p)
			for w := 1; w <= 4; w++ {
				if got := relabel(g, p, w); !sameCSR(got, want) {
					t.Fatalf("w=%d: got %v %v, want %v %v", w, got.Offsets, got.Edges, want.Offsets, want.Edges)
				}
			}
			if got := Apply(g, p); !sameCSR(got, want) {
				t.Fatalf("Apply: got %v %v, want %v %v", got.Offsets, got.Edges, want.Offsets, want.Edges)
			}
		}
	})
}

var relabelSink *graph.CSR

// BenchmarkApplyParallel times the relabel of DBG's renaming on an
// RMAT-16 graph (about two million stored edges) at widths 1 and 2.
func BenchmarkApplyParallel(b *testing.B) {
	g, err := gen.RMAT(16, 16, 0.57, 0.19, 0.19, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := DegreeDescending(g)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				relabelSink = ApplyParallel(g, p, w)
			}
		})
	}
}
