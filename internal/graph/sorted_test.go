package graph

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// mapV2 saves g as BCSR v2 and maps it back.
func mapV2(t *testing.T, g *CSR) *MappedCSR {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.bcsr")
	if err := SaveBinaryV2File(path, g); err != nil {
		t.Fatal(err)
	}
	m, err := MapBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if runtime.GOOS == "linux" && !m.Mapped() {
		t.Fatal("expected the zero-copy mapping on linux")
	}
	return m
}

// A mapped v2 graph learns its sortedness from the Validate pass of the
// open and answers EdgesSorted from it, with no scan.
func TestMappedEdgesSortedKnownAtMapTime(t *testing.T) {
	g := randomV2Graph(t, 500, 3000, 11)
	if !g.EdgesSorted() {
		t.Fatal("FromEdgeList graph not sorted")
	}
	mg := mapV2(t, g).Graph()
	if mg.sorted != sortYes {
		t.Fatalf("mapped sortedness = %d, want known sorted", mg.sorted)
	}
	if !mg.EdgesSorted() {
		t.Fatal("mapped sorted graph reports EdgesSorted false")
	}
	if c := mg.Clone(); c.sorted != sortUnknown {
		t.Fatal("a heap clone of a mapped graph kept the cached sortedness")
	}
}

func TestMappedEdgesUnsortedKnownAtMapTime(t *testing.T) {
	g, err := FromDirectedEdgeList(4, []Edge{{0, 3}, {0, 1}, {1, 0}, {3, 0}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgesSorted() {
		t.Fatal("test graph is sorted; want an unsorted list at vertex 0")
	}
	mg := mapV2(t, g).Graph()
	if mg.sorted != sortNo {
		t.Fatalf("mapped sortedness = %d, want known unsorted", mg.sorted)
	}
	if mg.EdgesSorted() {
		t.Fatal("mapped unsorted graph reports EdgesSorted true")
	}
}

// A payload whose checksums hold but whose structure does not still
// fails to open: validate reports the error, not a sortedness.
func TestMappedInvalidPayloadStillRejected(t *testing.T) {
	bad := &CSR{Offsets: []int64{0, 2, 2}, Edges: []VertexID{1, 7}}
	path := filepath.Join(t.TempDir(), "bad.bcsr")
	if err := SaveBinaryV2File(path, bad); err != nil {
		t.Fatal(err)
	}
	m, err := MapBinaryFile(path)
	if err == nil {
		m.Close()
		t.Fatal("MapBinaryFile accepted an out-of-range destination")
	}
	if !strings.Contains(err.Error(), "edge 1 destination 7 out of range") {
		t.Fatalf("err = %v, want the edge-range violation", err)
	}
}

// validate's sortedness agrees with a per-list scan on random graphs
// whose lists are partly reversed, including empty and one-entry lists.
func TestValidateSortednessMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		g := randomV2Graph(t, 1+rng.Intn(60), rng.Intn(120), int64(trial))
		for v := 0; v < g.NumVertices(); v++ {
			if rng.Intn(8) == 0 {
				slices.Reverse(g.Neighbors(VertexID(v)))
			}
		}
		want := true
		for v := 0; v < g.NumVertices(); v++ {
			want = want && slices.IsSorted(g.Neighbors(VertexID(v)))
		}
		sorted, err := g.validate()
		if err != nil || sorted != want {
			t.Fatalf("trial %d: validate = %v, %v; per-list scan %v", trial, sorted, err, want)
		}
	}
}

// Heap graphs keep scanning: a list rewritten in place shows at once.
func TestHeapEdgesSortedRescans(t *testing.T) {
	g := randomV2Graph(t, 200, 1000, 12)
	if !g.EdgesSorted() {
		t.Fatal("FromEdgeList graph not sorted")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if adj := g.Neighbors(VertexID(v)); len(adj) > 1 {
			slices.Reverse(adj)
			break
		}
	}
	if g.EdgesSorted() {
		t.Fatal("EdgesSorted stale after an in-place reversal")
	}
	if g.sorted != sortUnknown {
		t.Fatal("a heap graph cached its sortedness")
	}
}

// validate reports the first violation, and counts as unsorted only a
// descent inside a list, not one where a list starts.
func TestValidateReportsSortedness(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *CSR
		sorted bool
		err    string
	}{
		{"empty", &CSR{}, true, ""},
		{"edgeless", &CSR{Offsets: []int64{0, 0, 0}}, true, ""},
		{"sorted", &CSR{Offsets: []int64{0, 2, 3, 3}, Edges: []VertexID{1, 2, 0}}, true, ""},
		{"unsorted", &CSR{Offsets: []int64{0, 2, 3, 3}, Edges: []VertexID{2, 1, 0}}, false, ""},
		{"descent across lists only", &CSR{Offsets: []int64{0, 1, 2, 2}, Edges: []VertexID{2, 0}}, true, ""},
		{"descent across an empty list", &CSR{Offsets: []int64{0, 1, 1, 2}, Edges: []VertexID{2, 0}}, true, ""},
		{"descent inside a list after an empty one", &CSR{Offsets: []int64{0, 0, 2, 2}, Edges: []VertexID{1, 0}}, false, ""},
		{"out of range", &CSR{Offsets: []int64{0, 1, 3, 3}, Edges: []VertexID{1, 0, 9}}, false, "edge 2 destination 9"},
		{"first of two out of range", &CSR{Offsets: []int64{0, 2, 3, 3}, Edges: []VertexID{1, 9, 8}}, false, "edge 1 destination 9"},
		{"short cover", &CSR{Offsets: []int64{0, 1}, Edges: []VertexID{0, 0}}, false, "want len(Edges) = 2"},
	} {
		sorted, err := tc.g.validate()
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil || sorted != tc.sorted {
			t.Errorf("%s: validate = %v, %v; want %v, nil", tc.name, sorted, err, tc.sorted)
		}
		if sorted != tc.g.EdgesSorted() {
			t.Errorf("%s: validate sorted %v, EdgesSorted %v", tc.name, sorted, tc.g.EdgesSorted())
		}
	}
}
