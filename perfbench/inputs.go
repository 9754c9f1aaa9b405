package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"unsafe"

	"bitcolor"
	"bitcolor/internal/coloring"
	"bitcolor/internal/gen"
	"bitcolor/internal/graph"
)

// inputSpec is one call of the RMAT generator in internal/gen. Its key
// — every parameter and the seed — names the cache files, so a cached
// input is reused only for exactly the same generation.
type inputSpec struct {
	scale, ef int
	a, b, c   float64
}

func (s inputSpec) key(seed int64) string {
	return fmt.Sprintf("rmat-s%d-ef%d-a%g-b%g-c%g-seed%d", s.scale, s.ef, s.a, s.b, s.c, seed)
}

// input is one workload's generated graph as the benchmark holds it:
// the undirected edge list the set-up builds from, the SNAP text the
// ingest op parses, and the reference coloring every op is compared with.
type input struct {
	n        int
	m        int          // undirected edges
	edges    []graph.Edge // one (u, v) pair per undirected edge; nil for ingest
	textPath string       // SNAP text, written for the ingest workload only
	// perm[old] is the vertex's index after Preprocess; ref is sequential
	// greedy on the preprocessed graph, indexed by that new ID.
	perm      []graph.VertexID
	ref       []uint16
	refColors int
}

// directedEdges is the CSR edge count (both directions of every edge).
func (in *input) directedEdges() int64 { return 2 * int64(in.m) }

// refOriginal is the reference in the input graph's own vertex IDs — what
// Pipeline.Run returns after undoing the preprocessing permutation.
func (in *input) refOriginal() []uint16 {
	out := make([]uint16, len(in.perm))
	for old, nw := range in.perm {
		out[old] = in.ref[nw]
	}
	return out
}

// generate runs the generator and relabels the graph so that vertices
// are numbered in order of first appearance in the text edge list (lines
// "u v", u < v, by u then v): a parser that densifies IDs in
// first-appearance order then reproduces these IDs exactly. Vertices no
// edge touches drop out, as they would from any edge list.
func generate(s inputSpec, seed int64) (int, []graph.Edge, error) {
	g, err := gen.RMAT(s.scale, s.ef, s.a, s.b, s.c, seed)
	if err != nil {
		return 0, nil, err
	}
	label := make([]int32, g.NumVertices())
	next := int32(0)
	relabel := func(v graph.VertexID) graph.VertexID {
		if label[v] == 0 {
			next++
			label[v] = next
		}
		return graph.VertexID(label[v] - 1)
	}
	edges := make([]graph.Edge, 0, g.NumEdges()/2)
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(graph.VertexID(u)) {
			if graph.VertexID(u) < v {
				lu := relabel(graph.VertexID(u))
				edges = append(edges, graph.Edge{U: lu, V: relabel(v)})
			}
		}
	}
	return int(next), edges, nil
}

// prepareInputs makes sure the cache holds the workload's input and its
// reference coloring, generating and computing whatever is missing. It
// runs in its own process before the measured one, so neither
// generation nor the reference shows in the measured process's time or
// resident set.
func prepareInputs(dir string, w *workload, seed int64) error {
	base := filepath.Join(dir, "cache", w.input.key(seed))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	need := []string{".edges", ".ref"}
	if w.kind == "ingest" {
		need = append(need, ".txt")
	}
	missing := false
	for _, ext := range need {
		if _, err := os.Stat(base + ext); err != nil {
			missing = true
		}
	}
	if !missing {
		return nil
	}
	n, _, edges, err := readEdges(base+".edges", true)
	if errors.Is(err, os.ErrNotExist) {
		if n, edges, err = generate(w.input, seed); err != nil {
			return err
		}
		err = writeAtomic(base+".edges", func(bw *bufio.Writer) error { return encodeEdges(bw, n, edges) })
	}
	if err != nil {
		return err
	}
	if w.kind == "ingest" {
		if _, err := os.Stat(base + ".txt"); errors.Is(err, os.ErrNotExist) {
			if err := writeAtomic(base+".txt", func(bw *bufio.Writer) error { return encodeText(bw, edges) }); err != nil {
				return err
			}
		}
	}
	if _, err := os.Stat(base + ".ref"); !errors.Is(err, os.ErrNotExist) {
		return err
	}
	g, err := bitcolor.NewGraph(n, edges)
	if err != nil {
		return err
	}
	pg, perm, err := bitcolor.PreprocessWithPermutation(g)
	if err != nil {
		return err
	}
	ref, err := coloring.Greedy(context.Background(), pg, coloring.MaxColorsDefault)
	if err != nil {
		return err
	}
	if err := coloring.Verify(pg, ref.Colors); err != nil {
		return fmt.Errorf("reference coloring: %w", err)
	}
	return writeAtomic(base+".ref", func(bw *bufio.Writer) error {
		return encodeRef(bw, perm, ref.Colors, ref.NumColors)
	})
}

// loadInput reads a prepared input from the cache.
func loadInput(dir string, w *workload, seed int64) (*input, error) {
	base := filepath.Join(dir, "cache", w.input.key(seed))
	// The ingest op reads only the text; holding the edge list too would
	// only grow the heap its garbage collections scan.
	n, m, edges, err := readEdges(base+".edges", w.kind != "ingest")
	if err != nil {
		return nil, fmt.Errorf("input not prepared (run with -prepare first): %w", err)
	}
	in := &input{n: n, m: m, edges: edges}
	if w.kind == "ingest" {
		in.textPath = base + ".txt"
	}
	if in.perm, in.ref, in.refColors, err = readRef(base+".ref", n); err != nil {
		return nil, err
	}
	return in, nil
}

// writeAtomic writes a cache file under a temporary name and renames it
// into place, so a reader never sees a partial file.
func writeAtomic(path string, write func(*bufio.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	bw := bufio.NewWriterSize(f, 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	// Written back now, so that the flush does not land in the measured
	// process's run.
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

const (
	edgesMagic = "PBEDGES1"
	refMagic   = "PBREF001"
)

// wordBytes views a slice of 32-bit words (or pairs of them) as bytes in
// host order; the cache is only ever read on the host that wrote it.
func wordBytes[T graph.Edge | graph.VertexID | uint16](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

func encodeEdges(w io.Writer, n int, edges []graph.Edge) error {
	var hdr [24]byte
	copy(hdr[:], edgesMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(edges)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(wordBytes(edges))
	return err
}

// readEdges reads an edge cache file: the vertex and edge counts, and
// the edges themselves when load is set.
func readEdges(path string, load bool) (n, m int, edges []graph.Edge, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	var hdr [24]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || string(hdr[:8]) != edgesMagic {
		return 0, 0, nil, fmt.Errorf("%s: not an edge cache file", path)
	}
	nv := binary.LittleEndian.Uint64(hdr[8:])
	ne := binary.LittleEndian.Uint64(hdr[16:])
	if st, err := f.Stat(); err != nil || uint64(st.Size()) != 24+8*ne || nv > 1<<32 {
		return 0, 0, nil, fmt.Errorf("%s: truncated edge cache file", path)
	}
	if !load {
		return int(nv), int(ne), nil, nil
	}
	edges = make([]graph.Edge, ne)
	if _, err := io.ReadFull(f, wordBytes(edges)); err != nil {
		return 0, 0, nil, err
	}
	for _, e := range edges {
		if uint64(e.U) >= nv || uint64(e.V) >= nv {
			return 0, 0, nil, fmt.Errorf("%s: edge (%d,%d) out of range", path, e.U, e.V)
		}
	}
	return int(nv), int(ne), edges, nil
}

// encodeText writes the SNAP edge list, one "u v" line per edge.
func encodeText(w *bufio.Writer, edges []graph.Edge) error {
	line := make([]byte, 0, 32)
	for _, e := range edges {
		line = strconv.AppendUint(line[:0], uint64(e.U), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(e.V), 10)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

func encodeRef(w io.Writer, perm []graph.VertexID, colors []uint16, numColors int) error {
	var hdr [24]byte
	copy(hdr[:], refMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(perm)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(numColors))
	for _, b := range [][]byte{hdr[:], wordBytes(perm), wordBytes(colors)} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

func readRef(path string, n int) ([]graph.VertexID, []uint16, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(data) != 24+6*n || string(data[:8]) != refMagic || binary.LittleEndian.Uint64(data[8:]) != uint64(n) {
		return nil, nil, 0, fmt.Errorf("%s: reference does not match the input", path)
	}
	perm := make([]graph.VertexID, n)
	colors := make([]uint16, n)
	copy(wordBytes(perm), data[24:24+4*n])
	copy(wordBytes(colors), data[24+4*n:])
	return perm, colors, int(binary.LittleEndian.Uint64(data[16:])), nil
}
