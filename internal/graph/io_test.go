package graph

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	input := `# SNAP-style comment
% matrix-market-style comment
0 1
1 2
2 0

10 11
`
	g, lines, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if lines != 4 {
		t.Fatalf("lines = %d, want 4", lines)
	}
	// IDs are densified: 0,1,2,10,11 → 0..4.
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.UndirectedEdgeCount() != 4 {
		t.Fatalf("edges = %d, want 4", g.UndirectedEdgeCount())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(3, 4) {
		t.Fatal("expected edges missing after densification")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0\n", "a b\n", "0 b\n"} {
		if _, _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := paperExample(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.UndirectedEdgeCount() != g.UndirectedEdgeCount() {
		t.Fatalf("round trip changed shape: %s vs %s", g, g2)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 500
	edges := make([]Edge, 2000)
	for i := range edges {
		edges[i] = Edge{U: VertexID(rng.Intn(n)), V: VertexID(rng.Intn(n))}
	}
	g, err := FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Offsets, g2.Offsets) || !reflect.DeepEqual(g.Edges, g2.Edges) {
		t.Fatal("binary round trip changed the graph")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("NOPE00000000"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated payload.
	g := paperExample(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// Corrupt headers must fail with a specific, explanatory error — and
// must do so without attempting the allocation the lying counts imply.
func TestBinaryCorruptHeaderErrors(t *testing.T) {
	hdr := func(version, nv, ne uint64) []byte {
		b := []byte(binaryMagic)
		b = binary.LittleEndian.AppendUint64(b, version)
		b = binary.LittleEndian.AppendUint64(b, nv)
		b = binary.LittleEndian.AppendUint64(b, ne)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"short header", []byte("BCSR\x01\x00"), "truncated binary header"},
		{"future version", hdr(99, 1, 0), "unsupported version"},
		{"absurd vertices", hdr(1, 1<<60, 0), "vertices (max"},
		{"absurd edges", hdr(1, 1, 1<<60), "adjacency entries (max"},
		{"missing offsets", hdr(1, 1000, 0), "truncated offsets"},
		{"offsets disagree with ne", append(hdr(1, 0, 5), make([]byte, 8)...),
			"header claims 5 adjacency entries"},
		{"missing edges", append(hdr(1, 0, 4), make([]byte, 8)...), "truncated edges"},
	}
	// The "missing edges" case needs Offsets[0] == ne to get past the
	// consistency check.
	binary.LittleEndian.PutUint64(cases[6].data[len(cases[6].data)-8:], 4)
	for _, tc := range cases {
		_, err := ReadBinary(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := paperExample(t)
	path := filepath.Join(t.TempDir(), "g.bcsr")
	if err := SaveBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges, g2.Edges) {
		t.Fatal("file round trip changed edges")
	}
}

func TestLoadEdgeListFileMissing(t *testing.T) {
	if _, err := LoadEdgeListFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing file did not error")
	}
}

// oracleReadEdges is the edge-list parser ReadEdges replaced, kept as
// the reference its output is held to: a bufio.Scanner over lines, then
// strings.TrimSpace, strings.Fields and strconv.ParseUint on each, with
// IDs densified through a map.
func oracleReadEdges(r io.Reader) (int, []Edge, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ids := make(map[uint64]VertexID)
	var edges []Edge
	lines := 0
	lookup := func(raw uint64) VertexID {
		if id, ok := ids[raw]; ok {
			return id
		}
		id := VertexID(len(ids))
		ids[raw] = id
		return id
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, nil, 0, fmt.Errorf("graph: malformed edge line %q", line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, nil, 0, fmt.Errorf("graph: bad vertex %q: %v", fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0, nil, 0, fmt.Errorf("graph: bad vertex %q: %v", fields[1], err)
		}
		edges = append(edges, Edge{U: lookup(u), V: lookup(v)})
		lines++
	}
	if err := sc.Err(); err != nil {
		return 0, nil, 0, err
	}
	return len(ids), edges, lines, nil
}

// parserConfigs are the (workers, block size) pairs the differential
// checks run readEdges at: tiny blocks put block cuts in the middle of
// lines, and the last pair is the production setting.
var parserConfigs = []struct{ workers, block int }{
	{1, 1}, {2, 3}, {3, 16}, {4, 61}, {2, parseBlockSize},
}

// checkAgainstOracle parses input with the oracle and with readEdges at
// every parserConfigs point, and fails unless each returns the same
// (n, edges, lines), and errors exactly when the oracle does — with the
// same message, which pins which line is reported first.
func checkAgainstOracle(t *testing.T, input string) {
	t.Helper()
	wantN, wantEdges, wantLines, wantErr := oracleReadEdges(strings.NewReader(input))
	for _, c := range parserConfigs {
		n, edges, lines, err := readEdges(context.Background(), strings.NewReader(input), c.workers, c.block)
		label := fmt.Sprintf("workers=%d block=%d", c.workers, c.block)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: err = %v, oracle err = %v", label, err, wantErr)
		}
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) || pe.Line < 1 {
				t.Fatalf("%s: error %v is not a *ParseError with a line", label, err)
			}
			if errors.Is(wantErr, bufio.ErrTooLong) {
				if !errors.Is(err, ErrLineTooLong) || !errors.Is(err, bufio.ErrTooLong) {
					t.Fatalf("%s: err = %v, want ErrLineTooLong", label, err)
				}
			} else if got := "graph: " + pe.Err.Error(); got != wantErr.Error() {
				t.Fatalf("%s: error %q, oracle %q", label, got, wantErr)
			}
			continue
		}
		if n != wantN || lines != wantLines || !slices.Equal(edges, wantEdges) {
			t.Fatalf("%s: got (n=%d, lines=%d, %d edges), oracle (n=%d, lines=%d, %d edges)",
				label, n, lines, len(edges), wantN, wantLines, len(wantEdges))
		}
	}
}

func TestReadEdgesMatchesOracleOnEdgeCases(t *testing.T) {
	long := strings.Repeat(" ", maxLineLen-len("1 2"))
	for name, input := range map[string]string{
		"longest line":               "1 2" + long[1:] + "\n3 4\n",
		"longest final line":         "3 4\n1 2" + long[1:],
		"too long line":              "1 2" + long + "\n3 4\n",
		"too long final line":        "3 4\n1 2" + long,
		"bad line before long line":  "x\n1 2" + long + "\n",
		"long comment is still long": "#" + long + "xx\n1 2\n",
		"dense then sparse ids":      "0 1\n1 2\n99999999999 3\n4294967296 0\n2 99999999999\n",
	} {
		t.Run(name, func(t *testing.T) { checkAgainstOracle(t, input) })
	}
}

// IDs densify in first-appearance order whichever side of the table's
// limit they fall on, including dense IDs met out of order early on,
// which the map takes first and the table later.
func TestReadEdgesDensifiesOutOfOrderIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var b strings.Builder
	for i := 0; i < 30000; i++ {
		fmt.Fprintf(&b, "%d %d\n", rng.Intn(150000), rng.Intn(150000))
		if i%1000 == 0 {
			fmt.Fprintf(&b, "%d 7\n", uint64(1)<<33+uint64(rng.Intn(50)))
		}
	}
	checkAgainstOracle(t, b.String())

	tab := idTable{limit: 10}
	if tab.id(100) != 0 || tab.id(3) != 1 || len(tab.sparse) != 1 {
		t.Fatalf("above the limit, raw 100 should sit in the map: %+v", tab)
	}
	tab.limit = 1000
	if tab.id(100) != 0 || len(tab.sparse) != 0 || tab.dense[100] != 1 || tab.id(100) != 0 {
		t.Fatalf("once under the limit, raw 100 should move into the table: %+v", tab)
	}
}

// Line errors carry the 1-based number of the first bad line in file
// order, blank and comment lines counted, whichever block it lands in.
func TestReadEdgesErrorLine(t *testing.T) {
	input := "0 1\n\n# comment\n1 2\r\n2 x\n3\n"
	for _, c := range parserConfigs {
		_, _, _, err := readEdges(context.Background(), strings.NewReader(input), c.workers, c.block)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 5 {
			t.Fatalf("workers=%d block=%d: err = %v, want a ParseError at line 5", c.workers, c.block, err)
		}
		if !strings.Contains(err.Error(), `bad vertex "x"`) {
			t.Fatalf("error %q does not name the bad vertex", err)
		}
	}
	_, _, _, err := ReadEdges(strings.NewReader("1 2\n" + strings.Repeat("9", maxLineLen) + "\n"))
	var pe *ParseError
	if !errors.Is(err, ErrLineTooLong) || !errors.Is(err, bufio.ErrTooLong) || !errors.As(err, &pe) || pe.Line != 2 {
		t.Fatalf("err = %v, want ErrLineTooLong at line 2", err)
	}
}

// The owned-buffer build (scatter, then transpose into the parser's
// edge buffer) is FromEdgeList on the same edges, self loops and
// duplicates included.
func TestOwnedBuildMatchesFromEdgeList(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{1, 0}, {1, 5}, {2, 1}, {50, 10}, {300, 3000}, {5000, 40000}} {
		for seed := int64(0); seed < 3; seed++ {
			edges := randomEdges(tc.n, tc.m, seed)
			want, err := FromEdgeList(tc.n, edges)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fromOwnedEdges(tc.n, slices.Clone(edges))
			if err != nil {
				t.Fatal(err)
			}
			graphsEqual(t, want, got, fmt.Sprintf("n=%d m=%d seed=%d", tc.n, tc.m, seed))
		}
	}
	if _, err := fromOwnedEdges(2, []Edge{{U: 0, V: 2}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

// LoadEdgeListFile and ReadDIMACS build through the owned-buffer path;
// both must equal FromEdgeList on the edges their text names.
func TestTextLoadersMatchFromEdgeList(t *testing.T) {
	const n = 2000
	edges := randomEdges(n, 20000, 9)
	want, err := FromEdgeList(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	var snap, dimacs strings.Builder
	fmt.Fprintf(&dimacs, "c random\np edge %d %d\n", n, len(edges))
	for _, e := range edges {
		fmt.Fprintf(&dimacs, "e %d %d\n", e.U+1, e.V+1)
	}
	// Densified IDs follow first appearance, so a leading self loop
	// "v v" for every v in order (which the build drops) pins raw ID v
	// to vertex v.
	for v := 0; v < n; v++ {
		fmt.Fprintf(&snap, "%d %d\n", v, v)
	}
	for _, e := range edges {
		fmt.Fprintf(&snap, "%d\t%d\r\n", e.U, e.V)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(snap.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, want, got, "LoadEdgeListFile")
	got, err = ReadDIMACS(strings.NewReader(dimacs.String()))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, want, got, "ReadDIMACS")
}

// cancelAfter is a reader that cancels its context once `after` bytes
// have been read, and counts the bytes read after that.
type cancelAfter struct {
	r      io.Reader
	after  int
	read   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.read += n; c.read >= c.after {
		c.cancel()
	}
	return n, err
}

// Cancelling mid-parse stops ingest within a block or so of input, with
// context.Canceled and with every parse worker gone.
func TestTextParsersHonorCancel(t *testing.T) {
	var snap, dimacs bytes.Buffer
	const n = 100000
	fmt.Fprintf(&dimacs, "p edge %d %d\n", n, 4*n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		fmt.Fprintf(&snap, "%d %d\n", u, v)
		fmt.Fprintf(&dimacs, "e %d %d\n", u+1, v+1)
	}
	if snap.Len() < 4<<20 {
		t.Fatalf("generated text is only %d bytes", snap.Len())
	}
	parsers := map[string]struct {
		text  []byte
		parse func(context.Context, io.Reader) error
	}{
		"edge list": {snap.Bytes(), func(ctx context.Context, r io.Reader) error {
			_, _, err := ReadEdgeListContext(ctx, r)
			return err
		}},
		"dimacs": {dimacs.Bytes(), func(ctx context.Context, r io.Reader) error {
			_, err := ReadDIMACSContext(ctx, r)
			return err
		}},
	}
	for name, p := range parsers {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := &cancelAfter{r: bytes.NewReader(p.text), after: len(p.text) / 3, cancel: cancel}
			err := p.parse(ctx, r)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if extra := r.read - r.after; extra > 2*parseBlockSize {
				t.Fatalf("read %d bytes after the cancel", extra)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines before the parse, %d after", before, after)
			}
		})
	}
}
