// Package graph implements the compressed sparse row (CSR) graph
// representation used throughout BitColor (paper §2.1, Fig 2), plus
// construction, validation, statistics and I/O.
//
// A graph has VERTEX_NUMBER vertices identified by dense uint32 indices.
// Offsets has one entry per vertex plus a terminator: the neighbors of
// vertex v are Edges[Offsets[v]:Offsets[v+1]]. All graphs in the paper are
// undirected; an undirected CSR stores each edge in both directions.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"
)

// VertexID is a dense vertex index. The paper uses 32-bit indices (the
// largest dataset, com-Friendster, has 65.6M vertices).
type VertexID = uint32

// CSR is a graph in compressed sparse row format.
type CSR struct {
	// Offsets has length NumVertices+1; Offsets[v] is the index in Edges
	// of the first neighbor of v (the paper's s_e; d_e is Offsets[v+1]).
	Offsets []int64
	// Edges stores destination vertex indices.
	Edges []VertexID

	// backing, when set, owns the storage Offsets/Edges alias (an mmap'd
	// BCSR v2 file) — the graph is valid only until backing is closed.
	// Engines never look at it; it exists so handle types can tell a
	// mapped view from an owned copy.
	backing interface{ Close() error }

	// sorted caches EdgesSorted. Only newMappedCSR sets it, from the
	// Validate walk it already makes: a PROT_READ mapping cannot change
	// after the check. Heap graphs leave it unknown and rescan, because
	// their owners rewrite lists in place (SortEdges, ShuffleEdges).
	sorted sortState
}

// sortState is a CSR's cached sortedness.
type sortState uint8

const (
	sortUnknown sortState = iota
	sortYes
	sortNo
)

// Backed reports whether the CSR's payload aliases externally owned
// storage (an open mmap region) rather than process-owned slices.
func (g *CSR) Backed() bool { return g.backing != nil }

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int {
	if len(g.Offsets) == 0 {
		return 0
	}
	return len(g.Offsets) - 1
}

// NumEdges returns the number of stored (directed) edges. For an
// undirected graph built by FromEdgeList this is twice the number of
// undirected edges.
func (g *CSR) NumEdges() int64 { return int64(len(g.Edges)) }

// Degree returns the out-degree of v.
func (g *CSR) Degree(v VertexID) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the adjacency slice of v. The slice aliases the CSR
// storage; callers must not modify it unless they own the graph.
func (g *CSR) Neighbors(v VertexID) []VertexID {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// EdgeRange returns the paper's (s_e, d_e) pair for v: the start and end
// indices of v's neighbors in the Edges array.
func (g *CSR) EdgeRange(v VertexID) (se, de int64) {
	return g.Offsets[v], g.Offsets[v+1]
}

// MaxDegree returns the largest vertex degree (0 for an empty graph).
func (g *CSR) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(VertexID(v)); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether u has v in its adjacency list. It uses binary
// search when u's edges are sorted and falls back to a linear scan
// otherwise.
func (g *CSR) HasEdge(u, v VertexID) bool {
	adj := g.Neighbors(u)
	if len(adj) == 0 {
		return false
	}
	if sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
		return i < len(adj) && adj[i] == v
	}
	for _, w := range adj {
		if w == v {
			return true
		}
	}
	return false
}

// Validate checks structural invariants: monotone offsets covering Edges
// exactly, and every destination within range. It returns the first
// violation found.
func (g *CSR) Validate() error {
	_, err := g.validate()
	return err
}

// validate is Validate's walk. It also reports whether every adjacency
// list is ascending, so a mapping learns EdgesSorted in the same pass.
func (g *CSR) validate() (sorted bool, err error) {
	n := g.NumVertices()
	if len(g.Offsets) == 0 {
		if len(g.Edges) != 0 {
			return false, fmt.Errorf("graph: %d edges with empty offsets", len(g.Edges))
		}
		return true, nil
	}
	if g.Offsets[0] != 0 {
		return false, fmt.Errorf("graph: Offsets[0] = %d, want 0", g.Offsets[0])
	}
	for v := 0; v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return false, fmt.Errorf("graph: offsets not monotone at vertex %d (%d > %d)",
				v, g.Offsets[v], g.Offsets[v+1])
		}
	}
	if g.Offsets[n] != int64(len(g.Edges)) {
		return false, fmt.Errorf("graph: Offsets[%d] = %d, want len(Edges) = %d",
			n, g.Offsets[n], len(g.Edges))
	}
	// One flat walk of the edges: a running maximum checks the range and
	// every descent is counted. A descent where a nonempty list starts is
	// allowed, so those are taken back in an O(V) pass; what is left is a
	// descent inside some list.
	var top, prev VertexID
	descents := 0
	for _, d := range g.Edges {
		top = max(top, d)
		if d < prev {
			descents++
		}
		prev = d
	}
	if len(g.Edges) > 0 && int(top) >= n {
		i := slices.IndexFunc(g.Edges, func(d VertexID) bool { return int(d) >= n })
		return false, fmt.Errorf("graph: edge %d destination %d out of range (n=%d)", i, g.Edges[i], n)
	}
	for v := 1; v < n && descents > 0; v++ {
		if i := g.Offsets[v]; i > 0 && i < g.Offsets[v+1] && g.Edges[i-1] > g.Edges[i] {
			descents--
		}
	}
	return descents == 0, nil
}

// IsUndirected reports whether every stored edge has its reverse present.
// O(E log d); intended for tests and dataset sanity checks.
func (g *CSR) IsUndirected() bool {
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			if !g.HasEdge(w, VertexID(v)) {
				return false
			}
		}
	}
	return true
}

// HasSelfLoops reports whether any vertex lists itself as a neighbor.
func (g *CSR) HasSelfLoops() bool {
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			if w == VertexID(v) {
				return true
			}
		}
	}
	return false
}

// EdgesSorted reports whether every vertex's adjacency list is in
// ascending destination order — the paper's preprocessing invariant for
// DRAM read merging (§3.2.2) and tail pruning. A mapped graph answers
// from the flag its Validate pass stored; a heap graph scans its lists.
func (g *CSR) EdgesSorted() bool {
	if g.sorted != sortUnknown {
		return g.sorted == sortYes
	}
	for v := 0; v < g.NumVertices(); v++ {
		adj := g.Neighbors(VertexID(v))
		for i := 1; i < len(adj); i++ {
			if adj[i-1] > adj[i] {
				return false
			}
		}
	}
	return true
}

// SortEdges sorts every adjacency list ascending in place.
func (g *CSR) SortEdges() {
	for v := 0; v < g.NumVertices(); v++ {
		slices.Sort(g.Neighbors(VertexID(v)))
	}
}

// Clone returns a deep copy of the graph.
func (g *CSR) Clone() *CSR {
	return &CSR{
		Offsets: append([]int64(nil), g.Offsets...),
		Edges:   append([]VertexID(nil), g.Edges...),
	}
}

// String summarizes the graph for logs.
func (g *CSR) String() string {
	return fmt.Sprintf("CSR{V=%d, E=%d}", g.NumVertices(), g.NumEdges())
}

// Edge is one undirected edge; used by builders and I/O.
type Edge struct {
	U, V VertexID
}

// FromEdgeList builds an undirected CSR over n vertices from an edge list.
// Each undirected edge {u,v} is stored in both adjacency lists. Self loops
// are dropped (a self loop would make coloring infeasible) and duplicate
// edges are removed. Adjacency lists come out sorted ascending. The
// caller keeps edges, so the lists are sorted in place one by one.
func FromEdgeList(n int, edges []Edge) (*CSR, error) {
	offsets, err := degreeOffsets(n, edges)
	if err != nil {
		return nil, err
	}
	g := &CSR{Offsets: offsets, Edges: scatterEdges(offsets, edges)}
	g.SortEdges()
	g.dedupSorted()
	return g, nil
}

// fromOwnedEdges is FromEdgeList for a parser that owns edges and drops
// it afterwards, built without a comparison sort. The edges are first
// scattered into an unsorted CSR. Its transpose, written by walking the
// source vertices in ascending order, lists every vertex's in-neighbors
// in ascending order; the graph is symmetric, so that is the same graph
// with every adjacency list sorted. The transpose goes into edges' own
// storage, read as 2·len(edges) VertexIDs, which is dead once the
// scatter has run — so the build holds two E-sized arrays at its peak,
// as FromEdgeList does. The result equals FromEdgeList(n, edges).
func fromOwnedEdges(n int, edges []Edge) (*CSR, error) {
	if len(edges) == 0 { // no storage to reuse
		return FromEdgeList(n, edges)
	}
	offsets, err := degreeOffsets(n, edges)
	if err != nil {
		return nil, err
	}
	adj := scatterEdges(offsets, edges)
	out := unsafe.Slice((*VertexID)(unsafe.Pointer(unsafe.SliceData(edges))), 2*len(edges))
	next := slices.Clone(offsets[:n])
	for s := 0; s < n; s++ {
		for _, t := range adj[offsets[s]:offsets[s+1]] {
			out[next[t]] = VertexID(s)
			next[t]++
		}
	}
	g := &CSR{Offsets: offsets, Edges: out[:offsets[n]]}
	g.dedupSorted()
	return g, nil
}

// degreeOffsets returns the CSR offsets of the undirected graph over n
// vertices that edges span, self loops left out, or an error naming
// the first edge with an endpoint out of range.
func degreeOffsets(n int, edges []Edge) ([]int64, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	offsets := make([]int64, n+1)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n)
		}
		if e.U != e.V {
			offsets[int(e.U)+1]++
			offsets[int(e.V)+1]++
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	return offsets, nil
}

// scatterEdges stores every edge but self loops under both endpoints,
// in input order: the adjacency array of an unsorted CSR over offsets.
func scatterEdges(offsets []int64, edges []Edge) []VertexID {
	adj := make([]VertexID, offsets[len(offsets)-1])
	next := slices.Clone(offsets[:len(offsets)-1])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		adj[next[e.U]] = e.V
		next[e.U]++
		adj[next[e.V]] = e.U
		next[e.V]++
	}
	return adj
}

// FromDirectedEdgeList builds a CSR storing each edge exactly as given
// (no reverse edge, no dedup). Used by tests that need precise layouts.
func FromDirectedEdgeList(n int, edges []Edge) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	deg := make([]int64, n)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, n)
		}
		deg[e.U]++
	}
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]VertexID, offsets[n])
	fill := make([]int64, n)
	for _, e := range edges {
		adj[offsets[e.U]+fill[e.U]] = e.V
		fill[e.U]++
	}
	return &CSR{Offsets: offsets, Edges: adj}, nil
}

// dedupSorted removes duplicate destinations from each (sorted) adjacency
// list, compacting storage.
func (g *CSR) dedupSorted() {
	n := g.NumVertices()
	newOffsets := make([]int64, n+1)
	w := int64(0)
	for v := 0; v < n; v++ {
		newOffsets[v] = w
		adj := g.Neighbors(VertexID(v))
		var prev VertexID
		first := true
		for _, d := range adj {
			if first || d != prev {
				g.Edges[w] = d
				w++
			}
			prev, first = d, false
		}
	}
	newOffsets[n] = w
	g.Offsets = newOffsets
	g.Edges = g.Edges[:w]
}

// UndirectedEdgeCount returns the number of undirected edges (stored
// directed edges / 2) assuming the graph is a symmetric simple graph.
func (g *CSR) UndirectedEdgeCount() int64 { return g.NumEdges() / 2 }

// CollectEdges returns each undirected edge once (u < v). Intended for
// I/O and tests, not hot paths.
func (g *CSR) CollectEdges() []Edge {
	var out []Edge
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < w {
				out = append(out, Edge{U: VertexID(v), V: w})
			}
		}
	}
	return out
}
