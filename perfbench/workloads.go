package main

// workload is one seeded input and the op the benchmark repeats on it.
type workload struct {
	name  string
	kind  string // "ingest", "recolor" or "outofcore"
	input inputSpec
}

// rmatSpec is the power-law graph the workloads run on: RMAT at the
// given scale with 16 edge samples per vertex.
func rmatSpec(scale int, smoke bool) inputSpec {
	if smoke {
		return inputSpec{scale: 12, ef: 8, a: .57, b: .19, c: .19}
	}
	return inputSpec{scale: scale, ef: 16, a: .57, b: .19, c: .19}
}

// The warm workloads run at scale 19, whose edge array (62 MB) is below
// a 105 MB L3. Ingest runs at scale 16: an ingest op at scale 19 takes
// about 6 s, so a run would hold only two or three of them and one burst
// of interference on a shared host would move the median. At scale 16 a
// run holds twenty or more of each variant, and parse and build still
// dominate the op.
const (
	warmScale   = 19
	ingestScale = 16
)

// workloads lists the benchmark's workloads; smoke shrinks the input so
// that all of them run in seconds (the benchmark's own tests).
func workloads(smoke bool) []*workload {
	in := rmatSpec(warmScale, smoke)
	return []*workload{
		// The cold user path: parse the SNAP text, build, preprocess,
		// color and verify. Ingest and reorder dominate; the engine
		// barely shows.
		{name: "ingest-rmat", kind: "ingest", input: rmatSpec(ingestScale, smoke)},
		// A warm serving loop on the mapped, preprocessed graph: the DCT
		// engine (gather on) and verify are the whole op, and ingest is
		// paid once, in the set-up.
		{name: "recolor-rmat", kind: "recolor", input: in},
		// Bounded-residency streaming of a 4-shard BCSR v3 file: the only
		// path through partition, shard mapping and the frontier phase.
		{name: "outofcore-rmat", kind: "outofcore", input: in},
	}
}

func findWorkload(name string, smoke bool) *workload {
	for _, w := range workloads(smoke) {
		if w.name == name {
			return w
		}
	}
	return nil
}
