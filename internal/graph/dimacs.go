package graph

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// DIMACS .col support: the standard interchange format of the graph-
// coloring benchmark community (the instances BitColor's software
// baselines are usually evaluated on). Lines:
//
//	c <comment>
//	p edge <vertices> <edges>
//	e <u> <v>          (1-based endpoints)

// ReadDIMACS parses a DIMACS .col graph.
func ReadDIMACS(r io.Reader) (*CSR, error) {
	return ReadDIMACSContext(context.Background(), r)
}

// ReadDIMACSContext is ReadDIMACS under a context, checked between input
// blocks. Lines of maxLineLen bytes or more fail with ErrLineTooLong.
// The parsed edges go to the sort-free build, so the result equals
// FromEdgeList on them.
func ReadDIMACSContext(ctx context.Context, r io.Reader) (*CSR, error) {
	lr := lineReader{r: r}
	n := -1
	var edges []Edge
	line := 0
	var block []byte
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if block = lr.next(block, parseBlockSize); len(block) == 0 {
			break
		}
		for rest := block; len(rest) > 0; {
			var raw []byte
			raw, rest = cutLine(rest)
			line++
			if len(raw) >= maxLineLen {
				return nil, &ParseError{Line: line, Err: ErrLineTooLong}
			}
			text := strings.TrimSpace(string(raw))
			if text == "" {
				continue
			}
			switch text[0] {
			case 'c':
				continue
			case 'p':
				fields := strings.Fields(text)
				if len(fields) < 4 || fields[1] != "edge" {
					return nil, fmt.Errorf("graph: dimacs line %d: bad problem line %q", line, text)
				}
				v, err := strconv.Atoi(fields[2])
				if err != nil || v < 0 {
					return nil, fmt.Errorf("graph: dimacs line %d: bad vertex count %q", line, fields[2])
				}
				n = v
			case 'e':
				if n < 0 {
					return nil, fmt.Errorf("graph: dimacs line %d: edge before problem line", line)
				}
				fields := strings.Fields(text)
				if len(fields) < 3 {
					return nil, fmt.Errorf("graph: dimacs line %d: bad edge %q", line, text)
				}
				u, err1 := strconv.Atoi(fields[1])
				v, err2 := strconv.Atoi(fields[2])
				if err1 != nil || err2 != nil || u < 1 || v < 1 || u > n || v > n {
					return nil, fmt.Errorf("graph: dimacs line %d: edge %q out of range", line, text)
				}
				edges = append(edges, Edge{U: VertexID(u - 1), V: VertexID(v - 1)})
			default:
				return nil, fmt.Errorf("graph: dimacs line %d: unknown record %q", line, text)
			}
		}
	}
	if err := lr.readErr(); err != nil {
		return nil, fmt.Errorf("graph: reading dimacs: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("graph: dimacs input has no problem line")
	}
	return fromOwnedEdges(n, edges)
}

// WriteDIMACS writes the graph in DIMACS .col format.
func WriteDIMACS(w io.Writer, g *CSR, comment string) error {
	bw := bufio.NewWriter(w)
	if comment != "" {
		for _, line := range strings.Split(comment, "\n") {
			if _, err := fmt.Fprintf(bw, "c %s\n", line); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "p edge %d %d\n", g.NumVertices(), g.UndirectedEdgeCount()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < u {
				if _, err := fmt.Fprintf(bw, "e %d %d\n", v+1, u+1); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// Mycielski returns the k-th Mycielski graph M_k: triangle-free with
// chromatic number exactly k (M_2 = K2, M_3 = C5, M_4 = Grötzsch).
// Vertex counts grow as 3·2^(k-2) − 1, so k ≤ 12 keeps it practical.
func Mycielski(k int) (*CSR, error) {
	if k < 2 || k > 12 {
		return nil, fmt.Errorf("graph: Mycielski k=%d out of [2,12]", k)
	}
	// Start with K2.
	edges := []Edge{{U: 0, V: 1}}
	n := 2
	for step := 3; step <= k; step++ {
		// Mycielskian: for graph (V,E) with |V|=n, add shadow u_i for
		// each v_i plus apex w. Edges: u_i ~ N(v_i), w ~ all u_i.
		shadowBase := n
		apex := 2 * n
		var next []Edge
		next = append(next, edges...)
		for _, e := range edges {
			next = append(next,
				Edge{U: VertexID(shadowBase) + e.U, V: e.V},
				Edge{U: e.U, V: VertexID(shadowBase) + e.V},
			)
		}
		for i := 0; i < n; i++ {
			next = append(next, Edge{U: VertexID(apex), V: VertexID(shadowBase + i)})
		}
		edges = next
		n = 2*n + 1
	}
	return FromEdgeList(n, edges)
}

// Queen returns the n×n queen graph: vertices are board squares, edges
// join squares a queen move apart. Chromatic number is n when n is not
// divisible by 2 or 3 (e.g. queen5_5 has χ=5); a classic DIMACS family.
func Queen(n int) (*CSR, error) {
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("graph: Queen n=%d out of [1,64]", n)
	}
	id := func(r, c int) VertexID { return VertexID(r*n + c) }
	var edges []Edge
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			for r2 := r; r2 < n; r2++ {
				for c2 := 0; c2 < n; c2++ {
					if r2 == r && c2 <= c {
						continue
					}
					sameRow := r2 == r
					sameCol := c2 == c
					sameDiag := r2-r == c2-c || r2-r == c-c2
					if sameRow || sameCol || sameDiag {
						edges = append(edges, Edge{U: id(r, c), V: id(r2, c2)})
					}
				}
			}
		}
	}
	return FromEdgeList(n*n, edges)
}

// Complete returns K_n (chromatic number n).
func Complete(n int) (*CSR, error) {
	if n < 0 || n > 2048 {
		return nil, fmt.Errorf("graph: Complete n=%d out of [0,2048]", n)
	}
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{U: VertexID(u), V: VertexID(v)})
		}
	}
	return FromEdgeList(n, edges)
}

// Cycle returns C_n (chromatic number 2 for even n, 3 for odd n ≥ 3).
func Cycle(n int) (*CSR, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: Cycle n=%d < 3", n)
	}
	edges := make([]Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = Edge{U: VertexID(i), V: VertexID((i + 1) % n)}
	}
	return FromEdgeList(n, edges)
}
