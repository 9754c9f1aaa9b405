package graph

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// This file provides two interchange formats:
//
//   - SNAP-style whitespace-separated edge lists ("u v" per line, '#'
//     comments), so the real paper datasets can be dropped in when
//     available;
//   - a compact little-endian binary CSR format for fast reload of
//     generated datasets ("BCSR" magic, version, counts, offsets, edges).

// ReadEdgeList parses a SNAP-format undirected edge list. Vertex IDs may
// be sparse; they are densified in first-appearance order. Returns the
// graph and the number of input lines used.
func ReadEdgeList(r io.Reader) (*CSR, int, error) {
	return ReadEdgeListContext(context.Background(), r)
}

// ReadEdgeListContext is ReadEdgeList under a context: the parser checks
// ctx between input blocks and returns ctx.Err() once it is done. The
// parsed edge buffer is handed to the sort-free build (fromOwnedEdges),
// so the result equals FromEdgeList on ReadEdges' output.
func ReadEdgeListContext(ctx context.Context, r io.Reader) (*CSR, int, error) {
	n, edges, lines, err := readEdges(ctx, r, runtime.GOMAXPROCS(0), parseBlockSize)
	if err != nil {
		return nil, 0, err
	}
	g, err := fromOwnedEdges(n, edges)
	return g, lines, err
}

// ReadEdges parses a SNAP-format edge list into its densified edge set
// without building the CSR, so callers can time — and parallelize — the
// build separately (FromEdgeListParallel). Returns the vertex count, the
// edges, and the number of input lines used.
//
// A line is blank, a comment (its first non-space byte is '#' or '%'),
// or an edge: two unsigned decimal vertex IDs separated by whitespace,
// with anything after the second ID ignored. Lines of maxLineLen bytes
// or more fail with ErrLineTooLong; every line error is a *ParseError
// naming the line, and the first bad line in file order is the one
// reported.
func ReadEdges(r io.Reader) (int, []Edge, int, error) {
	return readEdges(context.Background(), r, runtime.GOMAXPROCS(0), parseBlockSize)
}

// maxLineLen bounds one input line, '\n' excluded: the text parsers
// reject a line of this many bytes or more with ErrLineTooLong. It is
// the 1 MiB buffer bound of the bufio.Scanner they were first built on.
const maxLineLen = 1 << 20

// parseBlockSize is about how many bytes of whole lines one parse
// worker takes at a time.
const parseBlockSize = 256 << 10

// ErrLineTooLong reports an input line of maxLineLen bytes or more. It
// wraps bufio.ErrTooLong, the error the parsers returned for such lines
// when they read through a bufio.Scanner.
var ErrLineTooLong = fmt.Errorf("line of %d bytes or more: %w", maxLineLen, bufio.ErrTooLong)

// ParseError is a text parser's error for one input line.
type ParseError struct {
	Line int   // 1-based line number in the input
	Err  error // what is wrong with the line
}

func (e *ParseError) Error() string { return fmt.Sprintf("graph: line %d: %v", e.Line, e.Err) }

func (e *ParseError) Unwrap() error { return e.Err }

// readEdges is ReadEdges on `workers` parse goroutines fed blocks of
// about blockSize bytes. The calling goroutine reads the blocks in
// order, hands each to a worker, and takes the parsed blocks back in
// the same order to densify their IDs, so at most 2·workers blocks are
// held at once whatever the input's size.
func readEdges(ctx context.Context, r io.Reader, workers, blockSize int) (int, []Edge, int, error) {
	type job struct {
		text []byte
		p    parsedBlock
		done chan struct{}
	}
	inflight := 2 * workers
	work := make(chan *job, inflight) // sends never block: at most inflight jobs exist
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				j.p = parseBlock(j.text, j.p.raw[:0])
				close(j.done)
			}
		}()
	}
	defer func() {
		close(work)
		wg.Wait()
	}()

	lr := lineReader{r: r}
	var (
		ids   idTable
		edges []Edge
		lines int // edge lines so far
		seen  int // all lines so far
		read  int // bytes parsed so far
		size  = inputSize(r)
		queue []*job
		free  []*job
	)
	for {
		for len(queue) < inflight && lr.err == nil {
			if err := ctx.Err(); err != nil {
				return 0, nil, 0, err
			}
			var j *job
			if k := len(free) - 1; k >= 0 {
				j, free = free[k], free[:k]
			} else {
				j = &job{}
			}
			if j.text = lr.next(j.text, blockSize); len(j.text) == 0 {
				free = append(free, j)
				break
			}
			j.done = make(chan struct{})
			queue = append(queue, j)
			work <- j
		}
		if len(queue) == 0 {
			break
		}
		j := queue[0]
		queue = append(queue[:0], queue[1:]...)
		<-j.done
		if j.p.err != nil {
			return 0, nil, 0, &ParseError{Line: seen + j.p.errLine, Err: j.p.err}
		}
		seen += j.p.lines
		raw := j.p.raw
		lines += len(raw) / 2
		ids.limit = denseIDLimit(lines)
		read += len(j.text)
		if cap(edges) == 0 && size > int64(read) && lines > 0 {
			// Size the buffer once from the edges per byte seen so far,
			// rather than copying it each time it grows.
			edges = make([]Edge, 0, int(float64(lines)*float64(size)/float64(read)))
		}
		edges = slices.Grow(edges, len(raw)/2)
		for k := 0; k < len(raw); k += 2 {
			u := ids.id(raw[k])
			edges = append(edges, Edge{U: u, V: ids.id(raw[k+1])})
		}
		free = append(free, j)
	}
	if err := lr.readErr(); err != nil {
		return 0, nil, 0, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return ids.n, edges, lines, nil
}

// inputSize is the size of a regular file r reads, or 0 when r is not
// one.
func inputSize(r io.Reader) int64 {
	if f, ok := r.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return 0
}

// lineReader cuts an io.Reader into blocks of whole lines, with the
// line semantics of bufio.ScanLines: lines end at '\n', and a final
// line without one still counts unless it is empty.
type lineReader struct {
	r       io.Reader
	tail    []byte // the start of a line the last block cut off
	err     error  // the first read error, io.EOF at a clean end; sticky
	empties int    // consecutive reads that returned nothing
}

// next returns dst's storage filled with the next block of whole lines:
// at least size bytes when the input has them, cut just after a '\n'.
// Once the input has ended, the block runs to its end, final line
// included. A line that reaches maxLineLen bytes without a '\n' also
// ends the input there — the parsers report it as too long — so a block
// never grows past about size+maxLineLen bytes. An empty block means
// nothing is left; readErr then tells why.
func (lr *lineReader) next(dst []byte, size int) []byte {
	b := append(dst[:0], lr.tail...)
	lr.tail = lr.tail[:0]
	cut, searched := 0, len(b) // the carried tail holds no '\n'
	for {
		if i := bytes.LastIndexByte(b[searched:], '\n'); i >= 0 {
			cut = searched + i + 1
		}
		searched = len(b)
		if lr.err == nil && len(b)-cut >= maxLineLen {
			lr.err = ErrLineTooLong
		}
		if lr.err != nil {
			return b
		}
		if cut > 0 && len(b) >= size {
			break
		}
		b = slices.Grow(b, max(size, len(b)))
		n, err := lr.r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		switch {
		case err != nil:
			lr.err = err
		case n > 0:
			lr.empties = 0
		default:
			// bufio.Scanner gives up after 100 empty reads in a row.
			if lr.empties++; lr.empties >= 100 {
				lr.err = io.ErrNoProgress
			}
		}
	}
	lr.tail = append(lr.tail, b[cut:]...)
	return b[:cut]
}

// readErr is the error that ended the input, nil at a clean end.
func (lr *lineReader) readErr() error {
	if lr.err == io.EOF {
		return nil
	}
	return lr.err
}

// cutLine splits the first line, without its '\n', off text.
func cutLine(text []byte) (line, rest []byte) {
	if i := bytes.IndexByte(text, '\n'); i >= 0 {
		return text[:i], text[i+1:]
	}
	return text, nil
}

// parsedBlock is one block's parse.
type parsedBlock struct {
	raw     []uint64 // raw endpoint pairs of the edge lines, in line order
	lines   int      // lines parsed, blank and comment lines included
	errLine int      // 1-based line within the block of err
	err     error    // the block's first bad line, nil when none
}

// parseBlock parses a block of whole lines, appending to raw. It stops
// at the first bad line.
func parseBlock(text []byte, raw []uint64) parsedBlock {
	p := parsedBlock{raw: raw}
	for len(text) > 0 {
		var line []byte
		line, text = cutLine(text)
		p.lines++
		u, v, edge, err := parseEdgeLine(line)
		if err != nil {
			p.errLine, p.err = p.lines, err
			break
		}
		if edge {
			p.raw = append(p.raw, u, v)
		}
	}
	return p
}

// parseEdgeLine parses one line. edge is false for a blank or comment
// line. The ASCII scan below settles the common line — optional spaces,
// two decimal IDs that fit in 64 bits, each followed by ASCII
// whitespace or the end of the line. Anything else, including any line
// with a byte >= 0x80 before the second ID ends, goes to
// parseEdgeLineSlow, so Unicode whitespace, signs, overflow and error
// messages keep the meaning strings.Fields and strconv.ParseUint give
// them. Bytes after the second ID cannot change the result: the fields
// past the second are ignored either way.
func parseEdgeLine(line []byte) (u, v uint64, edge bool, err error) {
	if len(line) >= maxLineLen {
		return 0, 0, false, ErrLineTooLong
	}
	i := skipSpace(line, 0)
	if i == len(line) || line[i] == '#' || line[i] == '%' {
		return 0, 0, false, nil
	}
	u, i, ok := parseDigits(line, i)
	if ok && i < len(line) && isSpace(line[i]) {
		v, i, ok = parseDigits(line, skipSpace(line, i))
		if ok && (i == len(line) || isSpace(line[i])) {
			return u, v, true, nil
		}
	}
	return parseEdgeLineSlow(line)
}

// parseEdgeLineSlow is the reference grammar of an edge line:
// strings.TrimSpace, strings.Fields and strconv.ParseUint.
func parseEdgeLineSlow(b []byte) (u, v uint64, edge bool, err error) {
	line := strings.TrimSpace(string(b))
	if line == "" || line[0] == '#' || line[0] == '%' {
		return 0, 0, false, nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, 0, false, fmt.Errorf("malformed edge line %q", line)
	}
	if u, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return 0, 0, false, fmt.Errorf("bad vertex %q: %w", fields[0], err)
	}
	if v, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
		return 0, 0, false, fmt.Errorf("bad vertex %q: %w", fields[1], err)
	}
	return u, v, true, nil
}

// isSpace reports ASCII whitespace as unicode.IsSpace defines it:
// '\t', '\n', '\v', '\f', '\r' and ' '.
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// parseDigits parses the decimal digits of b from i on. ok is false when
// there are none or their value overflows 64 bits.
func parseDigits(b []byte, i int) (x uint64, end int, ok bool) {
	start := i
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		if x > math.MaxUint64/10 || (x == math.MaxUint64/10 && d > math.MaxUint64%10) {
			return 0, i, false
		}
		x = x*10 + uint64(d)
	}
	return x, i, i > start
}

// idTable densifies raw vertex IDs in order of first appearance. Raw
// IDs below limit resolve through a flat table; the rest — sparse IDs,
// and any ID of 2^32 or more — go through a map.
type idTable struct {
	dense  []uint32 // dense[raw] is the ID plus one; 0 when raw is unseen
	sparse map[uint64]VertexID
	limit  uint64 // how far dense may grow; it only rises
	n      int    // IDs handed out
}

// denseIDLimit bounds the flat table at two entries per edge line so
// far, plus a floor. An edge line names at most two new vertices, so by
// the end of a file whose IDs run densely from 0 or 1 every ID is below
// the limit, and the table is never larger than the edge buffer.
func denseIDLimit(lines int) uint64 {
	return min(2*uint64(lines)+1<<16, math.MaxUint32)
}

func (t *idTable) id(raw uint64) VertexID {
	if raw < uint64(len(t.dense)) {
		if x := t.dense[raw]; x != 0 {
			return x - 1
		}
	}
	return t.add(raw)
}

// add resolves a raw ID the flat table does not hold: a new one, or one
// the map took while it was above the limit, which moves into the table
// once the limit has passed it.
func (t *idTable) add(raw uint64) VertexID {
	id, seen := t.sparse[raw]
	if !seen {
		id = VertexID(t.n)
		t.n++
	}
	if raw >= t.limit {
		if !seen {
			if t.sparse == nil {
				t.sparse = make(map[uint64]VertexID)
			}
			t.sparse[raw] = id
		}
		return id
	}
	if raw >= uint64(len(t.dense)) {
		grow := min(max(2*uint64(len(t.dense)), raw+1), t.limit) - uint64(len(t.dense))
		t.dense = append(t.dense, make([]uint32, grow)...)
	}
	if seen {
		delete(t.sparse, raw)
	}
	t.dense[raw] = id + 1
	return id
}

// LoadEdgeListFile reads a SNAP edge-list file from disk.
func LoadEdgeListFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, _, err := ReadEdgeList(f)
	return g, err
}

// WriteEdgeList writes each undirected edge once as "u v" lines.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	for v := 0; v < g.NumVertices(); v++ {
		for _, d := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < d {
				if _, err := fmt.Fprintf(bw, "%d %d\n", v, d); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

const (
	binaryMagic   = "BCSR"
	binaryVersion = uint32(1)
)

// WriteBinary serializes the CSR in the compact binary format.
func WriteBinary(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := []uint64{
		uint64(binaryVersion),
		uint64(g.NumVertices()),
		uint64(len(g.Edges)),
	}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for _, o := range g.Offsets {
		if err := binary.Write(bw, binary.LittleEndian, uint64(o)); err != nil {
			return err
		}
	}
	// Edges written in bulk via a reusable chunk to bound allocation.
	const chunk = 1 << 16
	buf := make([]byte, 0, chunk*4)
	for i, e := range g.Edges {
		buf = binary.LittleEndian.AppendUint32(buf, e)
		if len(buf) == cap(buf) || i == len(g.Edges)-1 {
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return bw.Flush()
}

// Header sanity caps for ReadBinary. VertexID is 32-bit, so a valid file
// can never name more vertices than fit in one; the edge cap bounds
// directed adjacency entries at 2^33 (32 GiB of payload) — generous for
// any real dataset while rejecting absurd counts up front.
const (
	binaryMaxVertices = uint64(1) << 32
	binaryMaxEdges    = uint64(1) << 33
	binaryReadChunk   = uint64(1) << 16 // entries read (and allocated) per step
)

// ReadBinary deserializes a CSR written by WriteBinary. Corrupt or
// truncated input fails with an explicit error rather than a huge
// allocation: header counts are sanity-capped, the offsets and edge
// arrays grow chunk by chunk as payload actually arrives (a lying header
// hits "truncated" long before exhausting memory), and the final graph
// is structurally validated.
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 4+3*8) // magic + version, nv, ne
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("graph: truncated binary header: %w", err)
	}
	if string(hdr[:4]) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", hdr[:4])
	}
	version := binary.LittleEndian.Uint64(hdr[4:])
	nv := binary.LittleEndian.Uint64(hdr[12:])
	ne := binary.LittleEndian.Uint64(hdr[20:])
	if version != uint64(binaryVersion) {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	if nv > binaryMaxVertices {
		return nil, fmt.Errorf("graph: header claims %d vertices (max %d)", nv, binaryMaxVertices)
	}
	if ne > binaryMaxEdges {
		return nil, fmt.Errorf("graph: header claims %d adjacency entries (max %d)", ne, binaryMaxEdges)
	}
	buf := make([]byte, 8*binaryReadChunk)
	offsets := make([]int64, 0, min(nv+1, binaryReadChunk))
	for remaining := nv + 1; remaining > 0; {
		c := min(remaining, binaryReadChunk)
		b := buf[:8*c]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graph: truncated offsets (%d of %d read): %w",
				len(offsets), nv+1, err)
		}
		for i := uint64(0); i < c; i++ {
			offsets = append(offsets, int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
		remaining -= c
	}
	if last := offsets[nv]; last != int64(ne) {
		return nil, fmt.Errorf("graph: offsets end at %d but header claims %d adjacency entries", last, ne)
	}
	edges := make([]VertexID, 0, min(ne, 2*binaryReadChunk))
	for remaining := ne; remaining > 0; {
		c := min(remaining, 2*binaryReadChunk)
		b := buf[:4*c]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("graph: truncated edges (%d of %d read): %w",
				len(edges), ne, err)
		}
		for i := uint64(0); i < c; i++ {
			edges = append(edges, binary.LittleEndian.Uint32(b[4*i:]))
		}
		remaining -= c
	}
	g := &CSR{Offsets: offsets, Edges: edges}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary payload invalid: %w", err)
	}
	return g, nil
}

// saveAtomic writes via a temp file in the target directory, fsyncs,
// and renames into place, so a crash mid-write never leaves a corrupt
// file at path — the same idiom benchsuite uses for -json emission.
func saveAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// SaveBinaryFile atomically writes the graph to path in binary CSR
// format (temp file + fsync + rename).
func SaveBinaryFile(path string, g *CSR) error {
	return saveAtomic(path, func(w io.Writer) error { return WriteBinary(w, g) })
}

// LoadBinaryFile reads a binary CSR file from disk.
func LoadBinaryFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
