package bitcolor

// Root-level verify tests: ColorContext verifies at the width the run
// was granted and reports the same first error at every width, and the
// mapped graph's cached sortedness keeps DCT exact on unsorted files.

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"bitcolor/internal/coloring"
	"bitcolor/internal/graph"
	"bitcolor/internal/reorder"
)

// corruptVerifies swaps in a verify pass that records its width and
// checks a copy of the coloring with vertex v given its first
// neighbor's color, for the rest of the test.
func corruptVerifies(t *testing.T, v int) *[]int {
	t.Helper()
	widths := new([]int)
	orig := verifyColoring
	verifyColoring = func(g *graph.CSR, colors []uint16, workers int) error {
		*widths = append(*widths, workers)
		bad := slices.Clone(colors)
		bad[v] = bad[g.Neighbors(graph.VertexID(v))[0]]
		return orig(g, bad, workers)
	}
	t.Cleanup(func() { verifyColoring = orig })
	return widths
}

// ColorContext verifies at the granted width — two for DCT at W=2, one
// for DCT at W=1 and for a sequential engine — and rejects a corrupted
// coloring with the same error text at every width.
func TestColorContextVerifyWidth(t *testing.T) {
	g := pipelineGraph(t)
	v := g.NumVertices() - 1
	for len(g.Neighbors(graph.VertexID(v))) == 0 {
		v--
	}
	widths := corruptVerifies(t, v)
	var msgs []string
	for _, opts := range []ColorOptions{
		{Engine: EngineDCT, Workers: 1},
		{Engine: EngineDCT, Workers: 2},
		{Engine: EngineGreedy, Workers: 2},
	} {
		_, _, err := ColorContext(context.Background(), g, opts)
		if err == nil {
			t.Fatalf("%v w=%d accepted a corrupted coloring", opts.Engine, opts.Workers)
		}
		msgs = append(msgs, err.Error())
	}
	if !slices.Equal(*widths, []int{1, 2, 1}) {
		t.Fatalf("verify widths %v, want [1 2 1]", *widths)
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("W=2 error %q differs from W=1 error %q", msgs[1], msgs[0])
	}
}

// DCT on a mapped graph whose lists are not sorted must see the mapped
// flag as unsorted (no merging or tail pruning) and still match
// sequential greedy exactly.
func TestDCTMappedUnsortedMatchesGreedy(t *testing.T) {
	g, err := Generate("RC", 1)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := Preprocess(g)
	if err != nil {
		t.Fatal(err)
	}
	reorder.ShuffleEdges(prepared, 7)
	if prepared.EdgesSorted() {
		t.Fatal("shuffled graph still sorted")
	}
	path := filepath.Join(t.TempDir(), "unsorted.bcsr")
	if err := SaveGraphV2(path, prepared); err != nil {
		t.Fatal(err)
	}
	h, err := OpenGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	mapped := h.Graph()
	if mapped.EdgesSorted() {
		t.Fatal("mapped unsorted graph reports EdgesSorted")
	}
	want, err := coloring.Greedy(context.Background(), prepared, coloring.MaxColorsDefault)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		res, _, err := ColorContext(context.Background(), mapped, ColorOptions{Engine: EngineDCT, Workers: w, ForceGather: true})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if !slices.Equal(res.Colors, want.Colors) {
			t.Fatalf("w=%d: DCT on the mapped unsorted graph differs from sequential greedy", w)
		}
	}
}
