package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/svc"
)

// compileOrder runs rounds compile rounds traced and returns the cell
// order of each.
func compileOrder(t *testing.T, w *compileWL, seed int64, rounds int) ([][]string, *recorder) {
	t.Helper()
	rec := newRecorder(seed)
	rec.tr = newTracer()
	var order [][]string
	for r := 0; r < rounds; r++ {
		m := rec.tr.mark()
		w.round(rec)
		var names []string
		for _, s := range rec.tr.since(m) {
			if s.Parent == 0 {
				names = append(names, s.Name)
			}
		}
		order = append(order, names)
	}
	return order, rec
}

func TestSeedDeterminism(t *testing.T) {
	w := &compileWL{}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	a, _ := compileOrder(t, w, 7, 2)
	b, _ := compileOrder(t, w, 7, 2)
	c, _ := compileOrder(t, w, 8, 2)
	if len(a[0]) != 24 {
		t.Fatalf("round compiled %d cells, want 24", len(a[0]))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different compile orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same compile orders")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("two rounds of one run compiled in the same order")
	}

	keys := serveKeys()
	if len(keys) != 192 {
		t.Fatalf("%d serve keys, want 192", len(keys))
	}
	s1, s2, s3 := serveStream(7, len(keys)), serveStream(7, len(keys)), serveStream(8, len(keys))
	if !reflect.DeepEqual(s1, s2) || reflect.DeepEqual(s1, s3) {
		t.Error("serve streams do not follow the seed")
	}
	uses := map[int]int{}
	for _, k := range s1 {
		uses[k]++
	}
	for k := range keys {
		if uses[k] != serveUses {
			t.Errorf("key %d is requested %d times, want %d", k, uses[k], serveUses)
		}
	}
	if repeat := 1 - float64(len(uses))/float64(len(s1)); repeat < 0.6 || repeat > 0.75 {
		t.Errorf("%.0f%% of requests repeat an earlier key, want about two thirds", 100*repeat)
	}
}

// A reference that does not match counts as a failed operation; the
// round goes on.
func TestCorruptReferenceCountsAsError(t *testing.T) {
	w := &compileWL{}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	w.cells[3].want.nests++
	_, rec := compileOrder(t, w, 1, 1)
	if rec.attempted != 24 || rec.failed != 1 {
		t.Errorf("compile: attempted %d failed %d, want 24 and 1", rec.attempted, rec.failed)
	}
	if len(rec.failures) != 1 || !strings.Contains(rec.failures[0], w.cells[3].name) {
		t.Errorf("compile failures %q do not name cell %s", rec.failures, w.cells[3].name)
	}

	want := state{arrays: map[string][]float64{"a": {1, 2}}, scalars: map[string]float64{"s": 1}}
	if err := want.diff(state{arrays: map[string][]float64{"a": {1, 2}}, scalars: map[string]float64{"s": 1 + 1e-15}}); err != nil {
		t.Errorf("a last-bit reduction difference failed the check: %v", err)
	}
	for _, got := range []state{
		{arrays: map[string][]float64{"a": {1, 3}}, scalars: map[string]float64{"s": 1}},
		{arrays: map[string][]float64{"a": {1}}, scalars: map[string]float64{"s": 1}},
		{arrays: map[string][]float64{"a": {1, 2}}, scalars: map[string]float64{"s": 1.001}},
		{arrays: map[string][]float64{"a": {1, 2}}},
		{},
	} {
		if want.diff(got) == nil {
			t.Errorf("distvm state %+v passed against %+v", got, want)
		}
	}
	if checkResidual(1, []float64{1, 2}, []float64{1, 2.5}) == nil || checkResidual(1, []float64{1, 2}, []float64{1}) == nil {
		t.Error("a wrong lazy residual passed")
	}

	sw := &serveWL{seed: 1}
	if err := sw.setup(); err != nil {
		t.Fatal(err)
	}
	var run, compile int
	for i, k := range sw.stream {
		if sw.keys[k].run {
			run = i
		} else {
			compile = i
		}
	}
	sw.refs[sw.stream[run]] += "corrupt"
	rec = newRecorder(1)
	seen := map[int]svc.CompileResponse{}
	ok := svc.RunResponse{Output: strings.TrimSuffix(sw.refs[sw.stream[run]], "corrupt")}
	ok.Tier = "mem"
	sw.record(rec, reply{idx: run, d: time.Millisecond, status: 200, resp: ok}, seen)
	sw.record(rec, reply{idx: compile, d: time.Millisecond, status: 200}, seen) // no race census
	sw.record(rec, reply{idx: compile, status: 429, err: errors.New("overloaded")}, seen)
	if rec.attempted != 3 || rec.failed != 3 {
		t.Errorf("serve: attempted %d failed %d, want 3 and 3", rec.attempted, rec.failed)
	}
}
