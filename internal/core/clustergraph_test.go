package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/core/reference"
	"repro/internal/driver"
	"repro/internal/programs"
	"repro/internal/sema"
)

// benchmarkGraphs returns the ASDG of every block of every benchmark,
// sequential and distributed at p=2 under FavorComm (whose inserted
// communication statements and segment labels constrain fusion).
func benchmarkGraphs(t *testing.T) []*asdg.Graph {
	t.Helper()
	fc := comm.DefaultOptions(2)
	fc.Strategy = comm.FavorComm
	var out []*asdg.Graph
	for _, b := range programs.All() {
		for _, co := range []*comm.Options{nil, &fc} {
			c, err := driver.Compile(b.Source, driver.Options{Level: core.Baseline, Comm: co})
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			for _, bp := range c.Plan.Blocks {
				out = append(out, bp.Graph)
			}
		}
	}
	return out
}

// barrierGraph builds a random chain of array statements over one
// region, each reading arrays written earlier, with writeln barriers
// (unfusible statements every later statement depends on) mixed in:
// the TestGrowBlockedByUnfusibleMiddle shape, at random.
func barrierGraph(r *rand.Rand) *asdg.Graph {
	reg := &sema.Region{Lo: []int{1, 1}, Hi: []int{8, 8}}
	n := 3 + r.Intn(12)
	var stmts []air.Stmt
	written := []string{"A"}
	for i := 0; i < n; i++ {
		if i > 0 && r.Intn(4) == 0 {
			stmts = append(stmts, &air.WritelnStmt{Args: []air.WriteArg{{Str: "x"}}})
			continue
		}
		var rhs air.Expr
		for k := 0; k < 1+r.Intn(2); k++ {
			off := air.Offset{r.Intn(3) - 1, 0}
			ref := &air.RefExpr{Ref: air.Ref{Array: written[r.Intn(len(written))], Off: off}}
			if rhs == nil {
				rhs = ref
			} else {
				rhs = &air.BinExpr{Op: air.OpAdd, X: rhs, Y: ref}
			}
		}
		lhs := fmt.Sprintf("T%d", i)
		stmts = append(stmts, &air.ArrayStmt{Region: reg, LHS: lhs, RHS: rhs})
		written = append(written, lhs)
	}
	return asdg.Build(stmts)
}

// randomPartition groups g's vertices into at most k random clusters;
// the result need not be legal or acyclic — GROW is defined anyway.
func randomPartition(t *testing.T, r *rand.Rand, g *asdg.Graph) *core.Partition {
	t.Helper()
	k := 1 + r.Intn(g.N())
	groups := make([][]int, k)
	for v := 0; v < g.N(); v++ {
		i := r.Intn(k)
		groups[i] = append(groups[i], v)
	}
	var clusters [][]int
	for _, ms := range groups {
		if len(ms) > 0 {
			clusters = append(clusters, ms)
		}
	}
	p, err := core.FromClusters(g, clusters)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestQuickGrowMatchesReference: GROW over the dense cluster graph
// equals GROW by naive reachability over the ASDG's edges, on random
// partitions of the benchmark graphs and of random barrier chains.
// One ClusterGraph serves several seed sets, so its scratch reuse is
// exercised too.
func TestQuickGrowMatchesReference(t *testing.T) {
	graphs := benchmarkGraphs(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := barrierGraph(r)
		if r.Intn(2) == 0 {
			g = graphs[r.Intn(len(graphs))]
		}
		p := randomPartition(t, r, g)
		cg := p.ClusterGraph()
		cl := cg.Clusters()
		for trial := 0; trial < 8; trial++ {
			c := map[int]bool{}
			for k := 1 + r.Intn(3); k > 0; k-- {
				c[cl[r.Intn(len(cl))]] = true
			}
			got, want := cg.Grow(c), reference.Grow(p, c)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Logf("seed %d: Grow(%v) = %v, reference %v over %s", seed, c, got, want, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGrowBarrierMiddle pins the unfusible-middle case: with the
// trivial partition of T := A; writeln; B := T, GROW of the outer pair
// pulls in the barrier, and the pair's closure is rejected.
func TestGrowBarrierMiddle(t *testing.T) {
	reg := &sema.Region{Lo: []int{1, 1}, Hi: []int{8, 8}}
	ref := func(a string) air.Expr { return &air.RefExpr{Ref: air.Ref{Array: a, Off: air.Offset{0, 0}}} }
	g := asdg.Build([]air.Stmt{
		&air.ArrayStmt{Region: reg, LHS: "T", RHS: ref("A")},
		&air.WritelnStmt{Args: []air.WriteArg{{Str: "x"}}},
		&air.ArrayStmt{Region: reg, LHS: "B", RHS: ref("T")},
	})
	p := core.Trivial(g)
	c := map[int]bool{0: true, 2: true}
	if got, want := p.ClusterGraph().Grow(c), reference.Grow(p, c); fmt.Sprint(got) != "map[1:true]" || fmt.Sprint(want) != fmt.Sprint(got) {
		t.Errorf("Grow = %v, reference %v; want map[1:true]", got, want)
	}
	if cs, ok := p.ClusterGraph().PairClosure(0, 2); ok {
		t.Errorf("PairClosure(0, 2) = %v accepted across a barrier", cs)
	}
}
