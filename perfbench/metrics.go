package main

import (
	"bitcolor"
	"fmt"
	"io"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is what a -trace 0 run prints; BENCHMARK.json lists the same
// names and units.
var endToEnd = []metricDef{
	{"throughput_medges_s", "Medges/s"},
	{"op_p50_ms", "ms"},
	{"colors_vs_greedy", "ratio"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is what a -trace 1 run prints, named after the module each
// metric measures. A workload that does not exercise a layer reports 0.
var perLayer = []metricDef{
	{"bitcolor.load_ms", "ms"},
	{"bitcolor.stage.preprocess_ms", "ms"},
	{"bitcolor.stage.color_ms", "ms"},
	{"bitcolor.stage.verify_ms", "ms"},
	{"bitcolor.self_ms", "ms"},
	{"graph.parse_ms", "ms"},
	{"graph.parse_ns_per_edge", "ns/edge"},
	{"graph.build_ms", "ms"},
	{"graph.open_ms", "ms"},
	{"graph.save_ms", "ms"},
	{"graph.shard_maps_per_op", "count"},
	{"graph.peak_mapped_mb", "MB"},
	{"graph.self_ms", "ms"},
	{"reorder.preprocess_ms", "ms"},
	{"reorder.self_ms", "ms"},
	{"partition.build_ms", "ms"},
	{"partition.cut_edges", "count"},
	{"partition.frontier_frac", "fraction"},
	{"coloring.engine_ms", "ms"},
	{"coloring.engine_w1_ms", "ms"},
	{"coloring.engine_ns_per_edge", "ns/edge"},
	{"coloring.verify_ms", "ms"},
	{"coloring.verify_share", "fraction"},
	{"coloring.self_ms", "ms"},
	{"coloring.allocs_per_op", "count"},
	{"coloring.alloc_mb_per_op", "MB"},
	{"coloring.dct.deferred", "count"},
	{"coloring.dct.defer_retries", "count"},
	{"coloring.dct.spin_waits", "count"},
	{"coloring.dct.ring_peak", "count"},
	{"coloring.gather.hot_reads", "count"},
	{"coloring.gather.merged_reads", "count"},
	{"coloring.gather.cold_block_loads", "count"},
	{"coloring.gather.pruned_tail", "count"},
	{"coloring.gather.auto_disabled", "flag"},
	{"coloring.sharded.cross_shard_defers", "count"},
	{"coloring.sharded.shard_ms_max", "ms"},
	{"coloring.sharded.shard_imbalance", "ratio"},
	{"exec.worker_imbalance", "ratio"},
	{"exec.speedup_vs_w1", "ratio"},
	{"obs.trace_overhead_frac", "fraction"},
	{"obs.observer_overhead_frac", "fraction"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}

const mib = 1 << 20

// stageMetrics reads Pipeline.Run's own stage timings.
func stageMetrics(stages []bitcolor.StageTiming) map[string]float64 {
	out := map[string]float64{}
	for _, st := range stages {
		out["bitcolor.stage."+st.Name+"_ms"] = ms(st.Duration)
	}
	return out
}

// setupLayerMetrics reads one traced set-up's spans.
func setupLayerMetrics(spans []span) map[string]float64 {
	out := map[string]float64{}
	for name, call := range map[string]string{
		"graph.build_ms":        "graph.FromEdgeListParallel",
		"reorder.preprocess_ms": "bitcolor.PreprocessWithPermutation",
		"graph.open_ms":         "bitcolor.OpenGraphFile",
		"partition.build_ms":    "coloring.BuildPartition",
	} {
		if d := durationOf(spans, call); d > 0 {
			out[name] = ms(d)
		}
	}
	if d := durationOf(spans, "graph.SaveBinaryV2File") + durationOf(spans, "graph.SaveBinaryV3File"); d > 0 {
		out["graph.save_ms"] = ms(d)
	}
	return out
}

// opLayerMetrics reads one traced op: its spans, the RunStats and shard
// statistics it returned, and the engine's allocations.
func opLayerMetrics(s *session, spans []span, out outcome) map[string]float64 {
	st := out.stats
	root := spans[0].dur()
	engine := durationOf(spans, "coloring.engine."+engineOf(s.w).String())
	verify := durationOf(spans, "coloring.Verify") + durationOf(spans, "coloring.VerifySharded")
	m := map[string]float64{
		"coloring.engine_ms":               ms(engine),
		"coloring.engine_ns_per_edge":      float64(engine) / float64(s.in.directedEdges()),
		"coloring.verify_ms":               ms(verify),
		"coloring.verify_share":            float64(verify) / float64(root),
		"coloring.allocs_per_op":           float64(out.allocs),
		"coloring.alloc_mb_per_op":         float64(out.bytes) / mib,
		"coloring.dct.deferred":            float64(st.Deferred),
		"coloring.dct.defer_retries":       float64(st.DeferRetries),
		"coloring.dct.spin_waits":          float64(st.SpinWaits),
		"coloring.dct.ring_peak":           float64(st.ForwardRingPeak),
		"coloring.gather.hot_reads":        float64(st.Gather.HotReads),
		"coloring.gather.merged_reads":     float64(st.Gather.MergedReads),
		"coloring.gather.cold_block_loads": float64(st.Gather.ColdBlockLoads),
		"coloring.gather.pruned_tail":      float64(st.Gather.PrunedTail),
		"coloring.gather.auto_disabled":    boolValue(st.Gather.AutoDisabled),
		"exec.worker_imbalance":            st.Imbalance(),
	}
	for layer, d := range selfTimes(spans) {
		m[layer+".self_ms"] = ms(d)
	}
	if d := durationOf(spans, "graph.ReadEdges"); d > 0 {
		m["graph.parse_ms"] = ms(d)
		m["graph.parse_ns_per_edge"] = float64(d) / float64(s.in.m)
		m["graph.build_ms"] = ms(durationOf(spans, "graph.FromEdgeList"))
		m["bitcolor.load_ms"] = ms(durationOf(spans, "bitcolor.OpenGraphFile"))
		m["reorder.preprocess_ms"] = ms(durationOf(spans, "bitcolor.PreprocessWithPermutation"))
	}
	if d := durationOf(spans, "bitcolor.OpenGraphFileOutOfCore"); d > 0 {
		m["graph.open_ms"] = ms(d)
	}
	if st.Shards > 0 {
		m["graph.shard_maps_per_op"] = float64(out.shard.Maps)
		m["graph.peak_mapped_mb"] = float64(out.shard.PeakResidentBytes) / mib
		m["partition.cut_edges"] = float64(st.CutEdges)
		m["partition.frontier_frac"] = float64(st.FrontierVertices) / float64(s.in.n)
		m["coloring.sharded.cross_shard_defers"] = float64(st.CrossShardDefers)
		var max, sum time.Duration
		for _, d := range st.ShardDurations {
			sum += d
			if d > max {
				max = d
			}
		}
		m["coloring.sharded.shard_ms_max"] = ms(max)
		if sum > 0 {
			m["coloring.sharded.shard_imbalance"] = float64(max) * float64(len(st.ShardDurations)) / float64(sum)
		}
	}
	return m
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// printSelfTimes prints the per-layer self-time table of the traced ops
// of the workload's op proper: the median over those ops of each layer's
// self time. The rows add up to the traced op, which is the untraced
// median times one plus the trace overhead.
func printSelfTimes(w io.Writer, tr *tracer, ops []int, untraced time.Duration, overhead float64) {
	var perOp []map[string]float64
	for _, op := range ops {
		row := map[string]float64{}
		for layer, d := range selfTimes(tr.opSpans(op)) {
			row[layer] = ms(d)
		}
		perOp = append(perOp, row)
	}
	table := medians(perOp)
	fmt.Fprintf(w, "self time per layer (median of %d traced ops; untraced op median %.3f ms, trace overhead %+.1f%%)\n",
		len(perOp), ms(untraced), 100*overhead)
	var total float64
	for _, layer := range sortedLayers(table) {
		total += table[layer]
		fmt.Fprintf(w, "  %-10s %10.3f ms\n", layer, table[layer])
	}
	fmt.Fprintf(w, "  %-10s %10.3f ms (%.1f%% of the untraced op median)\n", "sum", total, 100*total/ms(untraced))
}
