package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/driver"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one operation (a compilation, a run, an
// HTTP request) share Op; Parent is the enclosing span's ID, 0 at a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Tag    string        `json:"tag,omitempty"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark writes them out. A
// nil *tracer records nothing, so untraced runs pay one nil check per
// layer call. Safe for concurrent use.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	lastOp int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastOp++
	return t.lastOp
}

// start opens a span and returns its ID (0 when t is nil).
func (t *tracer) start(name string, parent int, op int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, tagging it (the serving tier of an HTTP request).
func (t *tracer) end(id int, tag string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Tag = tag
}

// mark returns the current span count; since(m) returns the spans
// recorded after it, the unit per-round layer times are computed over.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) since(m int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[m:]...)
}

// phases names, for each driver phase, its span after the layer it
// times and the per-layer metric of the span's self time.
var phases = []struct{ driver, span, metric string }{
	{"parse", "parser", "parser.ms"},
	{"sema", "sema", "sema.ms"},
	{"lower", "lower", "lower.ms"},
	{"comm", "comm", "comm.ms"},
	{"asdg", "asdg", "asdg.ms"},
	{"fusion", "core.fusion", "core.fusion_ms"},
	{"contraction", "core.contraction", "core.contraction_ms"},
	{"scalarize", "scalarize", "scalarize.ms"},
	{"prove", "absint.prove", "absint.prove_ms"},
	{"race", "mhp.race", "mhp.race_ms"},
}

// phaseSpan returns the span name of a driver phase.
func phaseSpan(name string) string {
	for _, p := range phases {
		if p.driver == name {
			return p.span
		}
	}
	return "phase." + name
}

// hooks returns driver hooks that open a child span of parent at every
// PhaseStart and close it at the matching PhaseEnd. The driver calls a
// Hooks pair sequentially within one compilation, so the stack needs no
// lock; each compilation gets its own pair.
func (t *tracer) hooks(parent int, op int64) driver.Hooks {
	if t == nil {
		return driver.Hooks{}
	}
	var stack []int
	return driver.Hooks{
		PhaseStart: func(name string) {
			p := parent
			if len(stack) > 0 {
				p = stack[len(stack)-1]
			}
			stack = append(stack, t.start(phaseSpan(name), p, op))
		},
		PhaseEnd: func(string) {
			if len(stack) == 0 {
				return
			}
			t.end(stack[len(stack)-1], "")
			stack = stack[:len(stack)-1]
		},
	}
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its child spans cover. Children are clipped to
// the parent and overlapping children are counted once.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// within the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes every recorded span as one JSON document.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	buf, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
