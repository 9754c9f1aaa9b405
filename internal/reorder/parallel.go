package reorder

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"bitcolor/internal/graph"
)

// The relabel kernel. Apply and ApplyParallel are one function, relabel,
// at width 1 and at width W, and it sorts nothing. It writes the
// transpose of the renamed graph by walking the new source IDs in
// ascending order, so every list it writes comes out ascending; on a
// symmetric graph that transpose is the renamed graph itself. An exact
// check decides whether the input was symmetric, and an asymmetric
// input is transposed once more, which gives its renamed out-lists, in
// order too (DESIGN.md §18). The output is the same at every width.

// parallelApplyMinVertices gates the parallel path: tiny graphs relabel
// faster at width 1 than they spawn goroutines.
const parallelApplyMinVertices = 1 << 10

// ApplyParallel is Apply using `workers` goroutines (<=0: GOMAXPROCS).
// The returned graph is identical to Apply's on the same inputs.
func ApplyParallel(g *graph.CSR, p *Permutation, workers int) *graph.CSR {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if g.NumVertices() < parallelApplyMinVertices {
		workers = 1
	}
	return relabel(g, p, workers)
}

// DBGParallel is DBG with the relabel pass parallelized across `workers`
// goroutines (<=0: GOMAXPROCS). It returns the reordered graph and the
// permutation carrying both directions of the renaming (NewID and its
// inverse OldID). Output is identical to DBG's.
func DBGParallel(g *graph.CSR, workers int) (*graph.CSR, *Permutation) {
	p := DegreeDescending(g)
	return ApplyParallel(g, p, workers), p
}

// relabel returns g renamed through p, every adjacency list ascending
// and every entry kept (duplicates and self loops included).
func relabel(g *graph.CSR, p *Permutation, workers int) *graph.CSR {
	t := transpose(g, p, workers)
	if t.symmetric() {
		return t.out
	}
	// t.out lists the renamed graph's in-neighbors; its transpose under
	// the identity lists the out-neighbors, each list ascending.
	return transpose(t.out, Identity(g.NumVertices()), workers).out
}

// transposed is one run of the kernel: out, and what symmetric needs to
// compare out with the renamed input.
type transposed struct {
	g   *graph.CSR
	p   *Permutation
	out *graph.CSR
	// bounds[w], bounds[w+1] is the range of new source IDs worker w
	// walked, balanced by edge count.
	bounds []int
	// counts is one int32 per vertex per worker: first that worker's
	// entries into each list, then its write cursors, then the balances
	// of symmetric.
	counts [][]int32
}

// maxListEntries is the most entries one list of the output may take:
// the write cursors are int32.
var maxListEntries int64 = math.MaxInt32

// transpose writes the transpose of g renamed through p: list t of out
// holds every new ID x whose old list contains OldID[t], once per
// occurrence, in ascending order. Worker w walks its range of x in
// order and writes at its own cursor in each list, which starts after
// the entries of the workers before it, so the writes are disjoint and
// the result does not depend on the width. It panics if a list would
// take more than maxListEntries entries.
func transpose(g *graph.CSR, p *Permutation, workers int) *transposed {
	n := g.NumVertices()
	m := g.NumEdges()
	// Each worker pays O(n) time and 4n bytes for its counts; at most
	// m/n workers keep all of them within the size of the edge array.
	workers = max(1, min(workers, int(m/int64(max(n, 1)))))
	t := &transposed{g: g, p: p, bounds: edgeBalancedRanges(g, p, workers), counts: make([][]int32, workers)}

	each(workers, func(w int) {
		c := make([]int32, n)
		for x := t.bounds[w]; x < t.bounds[w+1]; x++ {
			for _, v := range g.Neighbors(p.OldID[x]) {
				c[p.NewID[v]]++
			}
		}
		t.counts[w] = c
	})

	// Turn the counts into cursors relative to each list's start. A
	// count that wrapped leaves the in-degrees short of m.
	offsets := make([]int64, n+1)
	each(workers, func(w int) {
		for x := n * w / workers; x < n*(w+1)/workers; x++ {
			var in int64
			for _, c := range t.counts {
				in, c[x] = in+int64(c[x]), int32(in)
			}
			offsets[x+1] = in
		}
	})
	overflow := false
	for x := 0; x < n; x++ {
		overflow = overflow || offsets[x+1] > maxListEntries
		offsets[x+1] += offsets[x]
	}
	if overflow || offsets[n] != m {
		panic(fmt.Sprintf("reorder: a relabeled list would take more than %d entries", maxListEntries))
	}

	edges := make([]graph.VertexID, m)
	each(workers, func(w int) {
		c := t.counts[w]
		for x := t.bounds[w]; x < t.bounds[w+1]; x++ {
			for _, v := range g.Neighbors(p.OldID[x]) {
				nw := p.NewID[v]
				edges[offsets[nw]+int64(c[nw])] = graph.VertexID(x)
				c[nw]++
			}
		}
	})
	t.out = &graph.CSR{Offsets: offsets, Edges: edges}
	return t
}

// symmetric reports whether out is g renamed through p, that is,
// whether every list of out holds the same multiset as the renamed list
// of g. Lists of equal length match when the balance of each entry of
// out's list (+1 per entry of out's list, -1 per renamed entry of g's
// list) comes back to 0; that also leaves the balances all 0 for the
// next list.
func (t *transposed) symmetric() bool {
	var asym atomic.Bool
	each(len(t.counts), func(w int) {
		bal := t.counts[w]
		clear(bal)
		for x := t.bounds[w]; x < t.bounds[w+1] && !asym.Load(); x++ {
			list := t.out.Neighbors(graph.VertexID(x))
			src := t.g.Neighbors(t.p.OldID[x])
			if len(list) != len(src) {
				asym.Store(true)
				return
			}
			for _, y := range list {
				bal[y]++
			}
			for _, v := range src {
				bal[t.p.NewID[v]]--
			}
			for _, y := range list {
				if bal[y] != 0 {
					asym.Store(true)
					return
				}
			}
		}
	})
	return !asym.Load()
}

// edgeBalancedRanges splits the new IDs [0,n) into one contiguous range
// per worker holding about the same number of edges: bounds[w] is the
// first new ID whose preceding lists hold w/workers of the edges.
func edgeBalancedRanges(g *graph.CSR, p *Permutation, workers int) []int {
	n := g.NumVertices()
	m := g.NumEdges()
	bounds := make([]int, workers+1)
	w := 1
	var acc int64
	for x := 0; x < n && w < workers; x++ {
		for w < workers && acc*int64(workers) >= int64(w)*m {
			bounds[w] = x
			w++
		}
		acc += int64(g.Degree(p.OldID[x]))
	}
	for ; w <= workers; w++ {
		bounds[w] = n
	}
	return bounds
}

// each runs fn(w) for every w in [0, workers), one goroutine per w when
// there is more than one.
func each(workers int, fn func(w int)) {
	if workers == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
