package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bitcolor"
	"bitcolor/internal/coloring"
	"bitcolor/internal/graph"
	"bitcolor/internal/partition"
	"bitcolor/internal/reorder"
)

// variant is one configuration of a workload's op. The first variant of
// a workload is its op proper; the second is the single-goroutine
// baseline interleaved with it.
type variant struct {
	name     string
	workers  int // engine workers
	resident int // out-of-core: shards mapped at once
}

// outcome is what one op returned, as the benchmark checks and reports it.
type outcome struct {
	wall   time.Duration
	colors []uint16 // in the IDs the reference uses
	num    int      // colors used
	stats  bitcolor.RunStats
	stages []bitcolor.StageTiming
	shard  bitcolor.ShardMapStats
	allocs uint64 // heap objects the engine call allocated (traced ops)
	bytes  uint64 // heap bytes the engine call allocated (traced ops)
}

// session holds one workload's prepared input and the state its set-up
// leaves for the ops: a mapped graph and scratch arenas (recolor) or a
// shard-major file (out-of-core).
type session struct {
	w       *workload
	in      *input
	work    string // directory for the graph files the set-up writes
	workers int
	want    []uint16 // expected colors, in the op's vertex IDs

	g       *graph.CSR
	close   func() error
	scratch map[int]*bitcolor.Scratch
}

func newSession(w *workload, in *input, work string, workers int) *session {
	s := &session{w: w, in: in, work: work, workers: workers, want: in.ref}
	if w.kind == "ingest" {
		s.want = in.refOriginal()
	}
	return s
}

func (s *session) variants() []variant {
	switch s.w.kind {
	case "outofcore":
		return []variant{{name: "r2", workers: 1, resident: 2}, {name: "r1", workers: 1, resident: 1}}
	}
	return []variant{{name: "wn", workers: s.workers}, {name: "w1", workers: 1}}
}

func (s *session) path(ext string) string { return filepath.Join(s.work, s.w.name+ext) }

// release drops what the last set-up left behind.
func (s *session) release() error {
	var err error
	if s.close != nil {
		err = s.close()
	}
	for _, sc := range s.scratch {
		sc.Release()
	}
	s.g, s.close, s.scratch = nil, nil, nil
	return err
}

// setup does the workload's one-time program work and reports its wall
// time: build the CSR from the edge list, preprocess it, and write it as
// BCSR v2 (recolor: then map it and acquire scratch) or as a 4-shard
// BCSR v3 file (out-of-core). A non-nil tracer records every layer call
// in a span.
func (s *session) setup(tr *tracer) (time.Duration, error) {
	if err := s.release(); err != nil {
		return 0, err
	}
	runtime.GC()
	tr.beginOp("setup")
	defer tr.end()
	start := time.Now()
	var g *graph.CSR
	err := tr.do("graph.FromEdgeListParallel", "graph", func() (err error) {
		g, err = bitcolor.NewGraphParallel(s.in.n, s.in.edges, s.workers)
		return err
	})
	if err != nil {
		return 0, err
	}
	pg, _, err := preprocess(tr, g, s.workers)
	if err != nil {
		return 0, err
	}
	if s.w.kind == "outofcore" {
		err = saveV3(tr, s.path(".v3.bcsr"), pg)
		return time.Since(start), err
	}
	if err := tr.do("graph.SaveBinaryV2File", "graph", func() error { return bitcolor.SaveGraphV2(s.path(".v2.bcsr"), pg) }); err != nil {
		return 0, err
	}
	if err := s.openV2(tr); err != nil {
		return 0, err
	}
	tr.do("coloring.AcquireScratch", "coloring", func() error {
		s.scratch = map[int]*bitcolor.Scratch{}
		for _, v := range s.variants() {
			s.scratch[v.workers] = bitcolor.AcquireScratch(bitcolor.EngineDCT, v.workers, s.g)
		}
		return nil
	})
	return time.Since(start), nil
}

// preprocess is bitcolor.PreprocessWithPermutation; traced, it is the
// same two calls that function makes, one span each.
func preprocess(tr *tracer, g *graph.CSR, workers int) (*graph.CSR, []graph.VertexID, error) {
	if tr == nil {
		return bitcolor.PreprocessWithPermutation(g, bitcolor.WithPreprocessParallelism(workers))
	}
	tr.begin("bitcolor.PreprocessWithPermutation", "bitcolor")
	defer tr.end()
	if err := tr.do("graph.Validate", "graph", g.Validate); err != nil {
		return nil, nil, err
	}
	var out *graph.CSR
	var p *reorder.Permutation
	tr.do("reorder.DBGParallel", "reorder", func() error {
		out, p = reorder.DBGParallel(g, workers)
		return nil
	})
	return out, p.NewID, nil
}

// saveV3 is bitcolor.SaveGraphV3 with 4 range shards, split into the
// partition build and the shard-major write when traced.
func saveV3(tr *tracer, path string, g *graph.CSR) error {
	if tr == nil {
		return bitcolor.SaveGraphV3(path, g, 4, bitcolor.PartitionRanges)
	}
	tr.begin("bitcolor.SaveGraphV3", "bitcolor")
	defer tr.end()
	var a *partition.Assignment
	err := tr.do("coloring.BuildPartition", "partition", func() (err error) {
		a, err = coloring.BuildPartition(g, 4, bitcolor.PartitionRanges)
		return err
	})
	if err != nil {
		return err
	}
	return tr.do("graph.SaveBinaryV3File", "graph", func() error {
		code, err := partition.StrategyCode(bitcolor.PartitionRanges)
		if err != nil {
			return err
		}
		return graph.SaveBinaryV3File(path, g, a.Parts, a.K, code)
	})
}

// openV2 is bitcolor.OpenGraphFile on the v2 file (sniff, then map).
func (s *session) openV2(tr *tracer) error {
	path := s.path(".v2.bcsr")
	if tr == nil {
		h, err := bitcolor.OpenGraphFile(path)
		if err != nil {
			return err
		}
		if !h.Mapped() {
			h.Close()
			return fmt.Errorf("%s: v2 graph was not mapped", path)
		}
		s.g, s.close = h.Graph(), h.Close
		return nil
	}
	tr.begin("bitcolor.OpenGraphFile", "bitcolor")
	defer tr.end()
	if err := tr.do("graph.SniffFormat", "graph", func() error { _, err := graph.SniffFormat(path); return err }); err != nil {
		return err
	}
	return tr.do("graph.MapBinaryFile", "graph", func() error {
		m, err := graph.MapBinaryFile(path)
		if err != nil {
			return err
		}
		s.g, s.close = m.Graph(), m.Close
		return nil
	})
}

// op runs the workload's op once through the public API (tr == nil),
// reporting to o when it is not nil, or as the sequence of layer calls
// that API makes, one span each.
func (s *session) op(v variant, tr *tracer, o *bitcolor.Observer) (outcome, error) {
	switch s.w.kind {
	case "ingest":
		// Each ingest op allocates about a gigabyte; collecting the last
		// op's garbage first makes its peak resident set its own.
		runtime.GC()
		if tr != nil {
			return s.ingestTraced(v, tr)
		}
		return s.ingest(v)
	case "outofcore":
		if tr != nil {
			return s.streamTraced(v, tr)
		}
		return s.stream(v, o)
	}
	if tr != nil {
		return s.recolorTraced(v, tr)
	}
	return s.recolor(v, o)
}

func (s *session) ingest(v variant) (outcome, error) {
	start := time.Now()
	h, err := bitcolor.OpenGraphFile(s.in.textPath)
	if err != nil {
		return outcome{}, err
	}
	pr, err := bitcolor.Pipeline{
		PreprocessWorkers: v.workers,
		Color:             bitcolor.ColorOptions{Engine: bitcolor.EngineDCT, Workers: v.workers},
	}.Run(context.Background(), h.Graph())
	if cerr := h.Close(); err == nil {
		err = cerr
	}
	wall := time.Since(start)
	if err != nil {
		return outcome{}, err
	}
	return outcome{wall: wall, colors: pr.Result.Colors, num: pr.Result.NumColors, stats: pr.Stats, stages: pr.Stages}, nil
}

// ingestTraced is OpenGraphFile on an edge list (sniff, ReadEdges,
// FromEdgeList) followed by Pipeline.Run (validate, DBG, engine, verify,
// un-permute, verify) and Close.
func (s *session) ingestTraced(v variant, tr *tracer) (outcome, error) {
	ctx := context.Background()
	var out outcome
	start := time.Now()
	tr.beginOp("op")
	defer tr.end()
	var g *graph.CSR
	tr.begin("bitcolor.OpenGraphFile", "bitcolor")
	err := tr.do("graph.SniffFormat", "graph", func() error { _, err := graph.SniffFormat(s.in.textPath); return err })
	var n int
	var edges []graph.Edge
	if err == nil {
		err = tr.do("graph.ReadEdges", "graph", func() error {
			f, err := os.Open(s.in.textPath)
			if err != nil {
				return err
			}
			defer f.Close()
			n, edges, _, err = graph.ReadEdges(f)
			return err
		})
	}
	if err == nil {
		err = tr.do("graph.FromEdgeList", "graph", func() (err error) {
			g, err = graph.FromEdgeList(n, edges)
			return err
		})
	}
	tr.end()
	if err != nil {
		return out, err
	}

	tr.begin("bitcolor.Pipeline.Run", "bitcolor")
	defer tr.end()
	tr.begin("preprocess", "bitcolor")
	pg, perm, err := preprocess(tr, g, v.workers)
	tr.end()
	if err != nil {
		return out, err
	}
	tr.begin("color", "bitcolor")
	res, st, err := s.engine(ctx, tr, pg, coloring.Options{Workers: v.workers}, &out)
	if err == nil {
		err = tr.do("coloring.Verify", "coloring", func() error { return coloring.Verify(pg, res.Colors) })
	}
	tr.end()
	if err != nil {
		return out, err
	}
	orig := make([]uint16, len(res.Colors))
	for old, nw := range perm {
		orig[old] = res.Colors[nw]
	}
	tr.begin("verify", "bitcolor")
	err = tr.do("coloring.Verify", "coloring", func() error { return coloring.Verify(g, orig) })
	tr.end()
	out.wall = time.Since(start)
	out.colors, out.num, out.stats = orig, res.NumColors, st
	return out, err
}

// engine runs the DCT or sharded engine through the registry, as
// ColorContext and ColorHandle do, in a span, and records what it
// allocated. The MemStats reads sit outside the engine span.
func (s *session) engine(ctx context.Context, tr *tracer, g *graph.CSR, opts coloring.Options, out *outcome) (*coloring.Result, bitcolor.RunStats, error) {
	info, _ := coloring.LookupIndex(int(engineOf(s.w)))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var res *coloring.Result
	var st bitcolor.RunStats
	err := tr.do("coloring.engine."+info.Name, "coloring", func() (err error) {
		res, st, err = info.Run(ctx, g, opts)
		return err
	})
	runtime.ReadMemStats(&m1)
	out.allocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return res, st, err
}

func (s *session) recolor(v variant, o *bitcolor.Observer) (outcome, error) {
	start := time.Now()
	res, st, err := bitcolor.ColorContext(context.Background(), s.g, bitcolor.ColorOptions{
		Engine: bitcolor.EngineDCT, Workers: v.workers, Scratch: s.scratch[v.workers], Observer: o})
	wall := time.Since(start)
	if err != nil {
		return outcome{}, err
	}
	return outcome{wall: wall, colors: res.Colors, num: res.NumColors, stats: st}, nil
}

// recolorTraced is ColorContext: the registry engine, then Verify.
func (s *session) recolorTraced(v variant, tr *tracer) (outcome, error) {
	var out outcome
	start := time.Now()
	tr.beginOp("op")
	defer tr.end()
	tr.begin("bitcolor.ColorContext", "bitcolor")
	defer tr.end()
	res, st, err := s.engine(context.Background(), tr, s.g, coloring.Options{Workers: v.workers, Scratch: s.scratch[v.workers]}, &out)
	if err == nil {
		err = tr.do("coloring.Verify", "coloring", func() error { return coloring.Verify(s.g, res.Colors) })
	}
	out.wall = time.Since(start)
	if err != nil {
		return out, err
	}
	out.colors, out.num, out.stats = res.Colors, res.NumColors, st
	return out, nil
}

func (s *session) stream(v variant, o *bitcolor.Observer) (outcome, error) {
	start := time.Now()
	h, err := bitcolor.OpenGraphFileOutOfCore(s.path(".v3.bcsr"))
	if err != nil {
		return outcome{}, err
	}
	res, st, err := bitcolor.ColorHandle(h, bitcolor.ColorOptions{
		Engine: bitcolor.EngineSharded, Workers: v.workers, MaxResidentShards: v.resident, Observer: o})
	shard := h.ShardStats()
	if cerr := h.Close(); err == nil {
		err = cerr
	}
	wall := time.Since(start)
	if err != nil {
		return outcome{}, err
	}
	return outcome{wall: wall, colors: res.Colors, num: res.NumColors, stats: st, shard: shard}, nil
}

// streamTraced is OpenGraphFileOutOfCore (sniff, open the shard file),
// the out-of-core branch of ColorHandle (streamed engine run over an
// offsets-only skeleton, VerifySharded) and Close.
func (s *session) streamTraced(v variant, tr *tracer) (outcome, error) {
	var out outcome
	path := s.path(".v3.bcsr")
	start := time.Now()
	tr.beginOp("op")
	defer tr.end()
	tr.begin("bitcolor.OpenGraphFileOutOfCore", "bitcolor")
	err := tr.do("graph.SniffFormat", "graph", func() error { _, err := graph.SniffFormat(path); return err })
	var sf *graph.ShardedFile
	if err == nil {
		err = tr.do("graph.OpenShardedFile", "graph", func() (err error) {
			sf, err = graph.OpenShardedFile(path)
			return err
		})
	}
	tr.end()
	if err != nil {
		return out, err
	}
	tr.begin("bitcolor.ColorHandle", "bitcolor")
	skel := &graph.CSR{Offsets: make([]int64, sf.NumVertices()+1)}
	res, st, err := s.engine(context.Background(), tr, skel, coloring.Options{
		Workers: v.workers, MaxResidentShards: v.resident, OutOfCore: true, ShardFile: sf}, &out)
	if err == nil {
		err = tr.do("coloring.VerifySharded", "coloring", func() error { return coloring.VerifySharded(sf, res.Colors) })
	}
	tr.end()
	out.shard = sf.Stats()
	if cerr := tr.do("graph.ShardedFile.Close", "graph", sf.Close); err == nil {
		err = cerr
	}
	out.wall = time.Since(start)
	if err != nil {
		return out, err
	}
	out.colors, out.num, out.stats = res.Colors, res.NumColors, st
	return out, nil
}

// check is the correctness gate: the op's coloring must equal the
// sequential greedy reference byte for byte, with the same color count.
func (s *session) check(out outcome) error {
	if len(out.colors) != len(s.want) {
		return fmt.Errorf("%s: %d colors for %d vertices", s.w.name, len(out.colors), len(s.want))
	}
	if !bytes.Equal(wordBytes(out.colors), wordBytes(s.want)) {
		for v := range s.want {
			if out.colors[v] != s.want[v] {
				return fmt.Errorf("%s: vertex %d has color %d, sequential greedy gives %d", s.w.name, v, out.colors[v], s.want[v])
			}
		}
	}
	if out.num != s.in.refColors {
		return fmt.Errorf("%s: %d colors, sequential greedy uses %d", s.w.name, out.num, s.in.refColors)
	}
	return nil
}
