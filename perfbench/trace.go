package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: the benchmark wraps each public or internal call an op makes.
// Spans of one op share Op; Parent is -1 for the op's root span.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so set-up code can run traced or untraced through one path.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp starts a new op: its root span gets a fresh op id.
func (t *tracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.op++
	t.begin(name, "bitcolor")
}

func (t *tracer) begin(name, layer string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Op: t.op, ID: id, Parent: parent,
		Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// do runs fn inside a span.
func (t *tracer) do(name, layer string, fn func() error) error {
	t.begin(name, layer)
	defer t.end()
	return fn()
}

// opSpans returns the spans of op id, root first.
func (t *tracer) opSpans(op int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the time its
// child spans cover. Children of one span never overlap (every traced op
// is sequential), so the covered time is the sum of their durations, and
// the layer self times add up to the root span.
func selfTimes(spans []span) map[string]time.Duration {
	child := map[int]time.Duration{}
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.dur() - child[s.ID]
	}
	return out
}

// durationOf sums the spans of one op carrying the given name.
func durationOf(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// writeSpans writes every recorded span as a JSON array.
func (t *tracer) writeSpans(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sortedLayers lists a self-time table's layers in a stable order.
func sortedLayers(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
