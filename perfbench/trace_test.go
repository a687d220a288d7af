package main

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		// Overlapping children count once; a child running past its
		// parent is clipped to it.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms},
		// A grandchild is subtracted from its parent only.
		{ID: 5, Parent: 3, Name: "c", Start: 25 * ms, End: 35 * ms},
		{ID: 6, Name: "other", Start: 200 * ms, End: 210 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root":  50 * ms, // 100 - (10..50 ∪ 90..100)
		"a":     40 * ms, // 20 + (30 - 10)
		"b":     30 * ms,
		"c":     10 * ms,
		"other": 10 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestHooksNestPhaseSpans(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	root := tr.start("compile.x", 0, op)
	h := tr.hooks(root, op)
	h.PhaseStart("parse")
	h.PhaseEnd("parse")
	h.PhaseStart("fusion")
	h.PhaseStart("check")
	h.PhaseEnd("check")
	h.PhaseEnd("fusion")
	tr.end(root, "")

	spans := tr.since(0)
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	wantName := []string{"compile.x", "parser", "core.fusion", "phase.check"}
	wantParent := []int{0, 1, 1, 3}
	for i, s := range spans {
		if s.Name != wantName[i] || s.Parent != wantParent[i] || s.Op != op {
			t.Errorf("span %d = %s parent %d op %d, want %s parent %d op %d",
				i, s.Name, s.Parent, s.Op, wantName[i], wantParent[i], op)
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}

	var nilTracer *tracer
	nilTracer.end(nilTracer.start("x", 0, nilTracer.newOp()), "")
	if h := nilTracer.hooks(0, 0); h.PhaseStart != nil || h.PhaseEnd != nil {
		t.Error("a nil tracer must hand the driver no hooks")
	}
}

// The serve workload's clients record spans from several goroutines.
func TestTracerConcurrentUse(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.end(tr.start("http/run", 0, tr.newOp()), "mem")
			}
		}()
	}
	wg.Wait()
	spans := tr.since(0)
	ops := map[int64]bool{}
	for _, s := range spans {
		ops[s.Op] = true
		if s.End < s.Start || s.Tag != "mem" {
			t.Fatalf("span %+v was not closed", s)
		}
	}
	if len(spans) != 400 || len(ops) != 400 {
		t.Errorf("%d spans with %d operation IDs, want 400 of each", len(spans), len(ops))
	}
}
