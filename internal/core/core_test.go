package core

import (
	"testing"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/dep"
	"repro/internal/sema"
)

func off(vs ...int) air.Offset { return air.Offset(vs) }

func reg2(m, n int) *sema.Region {
	return &sema.Region{Lo: []int{1, 1}, Hi: []int{m, n}}
}

func arrStmt(r *sema.Region, lhs string, reads ...air.Ref) *air.ArrayStmt {
	var rhs air.Expr
	for _, rd := range reads {
		ref := &air.RefExpr{Ref: rd}
		if rhs == nil {
			rhs = ref
		} else {
			rhs = &air.BinExpr{Op: air.OpAdd, X: rhs, Y: ref}
		}
	}
	if rhs == nil {
		rhs = &air.ConstExpr{Val: 1}
	}
	return &air.ArrayStmt{Region: r, LHS: lhs, RHS: rhs}
}

func ref(a string, vs ...int) air.Ref { return air.Ref{Array: a, Off: air.Offset(vs)} }

// ---------------------------------------------------------------------------
// FIND-LOOP-STRUCTURE

func TestFindLoopStructureUnconstrained(t *testing.T) {
	p, ok := FindLoopStructure(2, nil)
	if !ok || p[0] != 1 || p[1] != 2 {
		t.Errorf("unconstrained structure = %v, %v; want (1,2)", p, ok)
	}
}

func TestFindLoopStructureFig2(t *testing.T) {
	// Statements 1 and 3 of Fig. 2: vectors (-1,0) and (1,-1).
	// The paper derives loop structure (-2,-1).
	p, ok := FindLoopStructure(2, []air.Offset{off(-1, 0), off(1, -1)})
	if !ok {
		t.Fatal("no structure found for Fig. 2 example")
	}
	if p[0] != -2 || p[1] != -1 {
		t.Errorf("structure = %v, want (-2,-1)", p)
	}
	if !dep.Preserves(p, []air.Offset{off(-1, 0), off(1, -1)}) {
		t.Error("found structure does not preserve its inputs")
	}
}

func TestFindLoopStructureReversal(t *testing.T) {
	p, ok := FindLoopStructure(2, []air.Offset{off(-1, 0)})
	if !ok || p[0] != -1 || p[1] != 2 {
		t.Errorf("structure = %v (ok=%v), want (-1,2)", p, ok)
	}
}

func TestFindLoopStructureInterchange(t *testing.T) {
	// (0,-1),(1,-1): dimension 1 carries the second vector with
	// direction +1; dimension 2 then needs reversal.
	p, ok := FindLoopStructure(2, []air.Offset{off(0, -1), off(1, -1)})
	if !ok || p[0] != 1 || p[1] != -2 {
		t.Errorf("structure = %v (ok=%v), want (1,-2)", p, ok)
	}
}

func TestFindLoopStructureNoSolution(t *testing.T) {
	if p, ok := FindLoopStructure(2, []air.Offset{off(1, -1), off(-1, 1)}); ok {
		t.Errorf("expected NOSOLUTION, got %v", p)
	}
}

func TestFindLoopStructureSpatialPreference(t *testing.T) {
	// With no constraints in either dimension the inner loop must get
	// the higher dimension (row-major spatial locality).
	p, _ := FindLoopStructure(3, []air.Offset{off(0, 0, 0)})
	if p[0] != 1 || p[1] != 2 || p[2] != 3 {
		t.Errorf("structure = %v, want (1,2,3)", p)
	}
}

// FindLoopStructure must legalize every vector set it accepts.
func TestFindLoopStructureAlwaysLegal(t *testing.T) {
	sets := [][]air.Offset{
		{off(0, 1)}, {off(2, -3)}, {off(-1, -1)}, {off(0, -2), off(0, -1)},
		{off(1, 1), off(1, -1)}, {off(-2, 0), off(-1, 5)},
	}
	for _, vs := range sets {
		p, ok := FindLoopStructure(2, vs)
		if !ok {
			continue
		}
		if !p.Valid() {
			t.Errorf("invalid structure %v for %v", p, vs)
		}
		if !dep.Preserves(p, vs) {
			t.Errorf("structure %v does not preserve %v", p, vs)
		}
	}
}

// ---------------------------------------------------------------------------
// Fusion for contraction

func plan(t *testing.T, stmts []air.Stmt, candidates []string) (*Partition, map[string]bool) {
	t.Helper()
	g := asdg.Build(stmts)
	p, contracted := FusionForContraction(g, nil, candidates)
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	return p, contracted
}

func TestContractTempPair(t *testing.T) {
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "_t1", ref("B", 0, 0)),
		arrStmt(r, "A", ref("_t1", 0, 0)),
	}
	p, contracted := plan(t, stmts, []string{"_t1"})
	if !contracted["_t1"] {
		t.Error("_t1 not contracted")
	}
	if p.ClusterOf(0) != p.ClusterOf(1) {
		t.Error("def and use not fused")
	}
}

func TestFragment7(t *testing.T) {
	// B = A + A + C(0:n-1,:); C = B — fusing carries an anti
	// dependence on C with u = (-1,0); B contracts.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0), ref("A", 0, 0), ref("C", -1, 0)),
		arrStmt(r, "C", ref("B", 0, 0)),
	}
	p, contracted := plan(t, stmts, []string{"B"})
	if !contracted["B"] {
		t.Error("B not contracted despite anti dependence being legalizable")
	}
	ls, ok := p.LoopStructureFor(p.ClusterOf(0))
	if !ok {
		t.Fatal("no loop structure")
	}
	if ls[0] != -1 {
		t.Errorf("outer loop = %d, want -1 (reversed dim 1)", ls[0])
	}
}

func TestNonNullFlowPreventsContraction(t *testing.T) {
	// B := A; C := B@(-1,0) — flow on B has u = (1,0) != 0, so B is
	// not contractible and the statements must not fuse for it.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0)),
		arrStmt(r, "C", ref("B", -1, 0)),
	}
	_, contracted := plan(t, stmts, []string{"B"})
	if contracted["B"] {
		t.Error("B contracted despite non-null flow dependence")
	}
}

func TestDifferentRegionsPreventFusion(t *testing.T) {
	r1 := reg2(8, 8)
	r2 := reg2(4, 4)
	stmts := []air.Stmt{
		arrStmt(r1, "B", ref("A", 0, 0)),
		arrStmt(r2, "C", ref("B", 0, 0)),
	}
	p, contracted := plan(t, stmts, []string{"B"})
	if contracted["B"] {
		t.Error("B contracted across non-conformable statements")
	}
	if p.ClusterOf(0) == p.ClusterOf(1) {
		t.Error("statements with different regions fused")
	}
}

func TestGrowPullsInMiddleCluster(t *testing.T) {
	// s0 writes T and X; s1 consumes X and produces Y; s2 consumes T
	// and Y. Fusing {s0, s2} for T must pull in s1 (it lies on the
	// would-be cycle), and the three-way fusion is legal, so T
	// contracts.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "T", ref("A", 0, 0)),
		arrStmt(r, "Y", ref("T", 0, 0)), // also reads T to create path
		arrStmt(r, "Z", ref("T", 0, 0), ref("Y", 0, 0)),
	}
	p, contracted := plan(t, stmts, []string{"T"})
	if !contracted["T"] {
		t.Error("T not contracted")
	}
	if p.NumClusters() != 1 {
		t.Errorf("expected single cluster, got %s", p)
	}
}

func TestGrowBlockedByUnfusibleMiddle(t *testing.T) {
	// The middle statement on the cycle is a barrier (writeln), so
	// the fusion — and therefore contraction — must fail.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "T", ref("A", 0, 0)),
		&air.WritelnStmt{Args: []air.WriteArg{{Str: "x"}}},
		arrStmt(r, "B", ref("T", 0, 0)),
	}
	p, contracted := plan(t, stmts, []string{"T"})
	if contracted["T"] {
		t.Error("T contracted across a barrier")
	}
	if p.NumClusters() != 3 {
		t.Errorf("expected trivial partition, got %s", p)
	}
}

func TestWeightOrdering(t *testing.T) {
	big := reg2(16, 16)
	stmts := []air.Stmt{
		arrStmt(big, "T", ref("A", 0, 0)),
		arrStmt(big, "B", ref("T", 0, 0)),
		arrStmt(big, "U", ref("B", 0, 0)),
	}
	g := asdg.Build(stmts)
	// T: 2 refs × 256; U: 1 ref... B: 2 refs + write... order check.
	names := ByDecreasingWeight(g, []string{"U", "T", "B"})
	if names[0] != "B" {
		t.Errorf("heaviest = %s, want B (3 references)", names[0])
	}
	if Weight(g, "T") != 2*256 {
		t.Errorf("w(T) = %d, want 512", Weight(g, "T"))
	}
}

func TestReduceFusesWithProducer(t *testing.T) {
	// X := A*A; s := +<< X — fusing the reduction lets X contract.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "X", ref("A", 0, 0)),
		&air.ReduceStmt{Target: "s", Op: air.ReduceSum, Region: r,
			Body: &air.RefExpr{Ref: ref("X", 0, 0)}},
	}
	p, contracted := plan(t, stmts, []string{"X"})
	if !contracted["X"] {
		t.Error("X not contracted into the reduction")
	}
	if p.ClusterOf(0) != p.ClusterOf(1) {
		t.Error("producer and reduction not fused")
	}
}

func TestCommPreventsContraction(t *testing.T) {
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "X", ref("A", 0, 0)),
		&air.CommStmt{Array: "X", Off: off(0, 1), Region: r},
		arrStmt(r, "B", ref("X", 0, 1)),
	}
	_, contracted := plan(t, stmts, []string{"X"})
	if contracted["X"] {
		t.Error("communicated array contracted")
	}
}

// ---------------------------------------------------------------------------
// Fusion for locality and greedy pairwise

func TestFusionForLocality(t *testing.T) {
	// Fragment (1): B=A+A; C=A*A — no dependences; locality fusion
	// merges both statements because they share A.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0), ref("A", 0, 0)),
		arrStmt(r, "C", ref("A", 0, 0), ref("A", 0, 0)),
	}
	g := asdg.Build(stmts)
	p := FusionForLocality(g, nil, AllArrays(g))
	if p.ClusterOf(0) != p.ClusterOf(1) {
		t.Error("independent statements sharing A not fused for locality")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGreedyPairwiseFusesIndependents(t *testing.T) {
	// Two statements with no shared arrays: locality fusion has no
	// reason to fuse them, greedy pairwise (f4) fuses anything legal.
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0)),
		arrStmt(r, "D", ref("C", 0, 0)),
	}
	g := asdg.Build(stmts)
	p := FusionForLocality(g, nil, AllArrays(g))
	if p.NumClusters() != 2 {
		t.Fatalf("locality fusion should not fuse disjoint statements: %s", p)
	}
	p = GreedyPairwise(p)
	if p.NumClusters() != 1 {
		t.Errorf("greedy pairwise should fuse disjoint statements: %s", p)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Realignment (fragment 8)

func TestRealignFragment8(t *testing.T) {
	r := reg2(8, 8)
	prog := &air.Program{Name: "frag8", Arrays: map[string]*air.ArrayInfo{
		"A":   {Name: "A", Declared: r, Alloc: r},
		"B":   {Name: "B", Declared: r, Alloc: r},
		"T1":  {Name: "T1", Declared: r, Alloc: r},
		"T2":  {Name: "T2", Declared: r, Alloc: r},
		"_t1": {Name: "_t1", Declared: r, Alloc: r, Temp: true},
	}, Scalars: map[string]*air.ScalarInfo{}, Procs: map[string]*air.Proc{}}
	stmts := []air.Stmt{
		arrStmt(r, "T1", ref("B", 0, 0)),
		arrStmt(r, "T2", ref("B", 0, 0)),
		arrStmt(r, "_t1", ref("A", 1, 0), ref("T1", 1, 0), ref("T2", 1, 0)),
		arrStmt(r, "A", ref("_t1", 0, 0)),
	}
	b := &air.Block{Stmts: stmts}
	RealignTemps(prog, b, []string{"T1", "T2", "_t1"})

	def := b.Stmts[2].(*air.ArrayStmt)
	if def.Region.Lo[0] != 2 || def.Region.Hi[0] != 9 {
		t.Fatalf("temp not realigned: region %s", def.Region)
	}
	for _, rd := range def.Reads() {
		if !rd.Off.IsZero() {
			t.Errorf("read %s not realigned to zero offset", rd)
		}
	}
	use := b.Stmts[3].(*air.ArrayStmt)
	if u := use.Reads()[0]; !u.Off.Equal(off(1, 0)) {
		t.Errorf("use offset = %v, want (1,0)", u.Off)
	}

	// After realignment, fusion-for-contraction contracts T1 and T2
	// but sacrifices the compiler temporary — the paper's trade-off.
	g := asdg.Build(b.Stmts)
	p, contracted := FusionForContraction(g, nil, []string{"T1", "T2", "_t1"})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !contracted["T1"] || !contracted["T2"] {
		t.Errorf("user temps not contracted: %v", contracted)
	}
	if contracted["_t1"] {
		t.Error("compiler temp contracted despite realignment")
	}
}

func TestRealignKeepsDefaultForFragment5(t *testing.T) {
	// A = A(0:n-1,:)+A(0:n-1,:): the only uniformly-offset read is the
	// written array itself, so the alignment must stay put and the
	// compiler temp remain contractible.
	r := reg2(8, 8)
	prog := &air.Program{Name: "frag5", Arrays: map[string]*air.ArrayInfo{
		"A":   {Name: "A", Declared: r, Alloc: r},
		"_t1": {Name: "_t1", Declared: r, Alloc: r, Temp: true},
	}, Scalars: map[string]*air.ScalarInfo{}, Procs: map[string]*air.Proc{}}
	stmts := []air.Stmt{
		arrStmt(r, "_t1", ref("A", -1, 0), ref("A", -1, 0)),
		arrStmt(r, "A", ref("_t1", 0, 0)),
	}
	b := &air.Block{Stmts: stmts}
	RealignTemps(prog, b, []string{"_t1"})
	def := b.Stmts[0].(*air.ArrayStmt)
	if def.Region.Lo[0] != 1 {
		t.Fatalf("fragment 5 temp was realigned: %s", def.Region)
	}
	g := asdg.Build(b.Stmts)
	p, contracted := FusionForContraction(g, nil, []string{"_t1"})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !contracted["_t1"] {
		t.Error("compiler temp for fragment 5 not contracted")
	}
	// The fused loop must reverse dimension 1 to honor the anti
	// dependence on A.
	ls, ok := p.LoopStructureFor(p.ClusterOf(0))
	if !ok || ls[0] != -1 {
		t.Errorf("loop structure = %v, want (-1,2)", ls)
	}
}

func TestGreedyPairwiseSharedRefusesDisjoint(t *testing.T) {
	r := reg2(8, 8)
	stmts := []air.Stmt{
		arrStmt(r, "B", ref("A", 0, 0)),
		arrStmt(r, "D", ref("C", 0, 0)), // disjoint from the first
		arrStmt(r, "E", ref("A", 0, 0)), // shares A with the first
	}
	g := asdg.Build(stmts)
	p := GreedyPairwiseShared(Trivial(g))
	if p.ClusterOf(0) != p.ClusterOf(2) {
		t.Error("statements sharing A not fused")
	}
	if p.ClusterOf(0) == p.ClusterOf(1) {
		t.Error("disjoint statements fused by the spatial variant")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLevelParsingExtensions(t *testing.T) {
	for _, name := range []string{"c2+f4s", "c2f4s"} {
		lvl, err := ParseLevel(name)
		if err != nil || lvl != C2F4S {
			t.Errorf("ParseLevel(%q) = %v, %v", name, lvl, err)
		}
	}
	if len(AllLevels()) != len(Levels())+1 {
		t.Error("AllLevels must extend Levels by c2+f4s")
	}
	if !C2F4S.ContractsUsers() || !C2F4S.FusesUsers() {
		t.Error("c2+f4s capability flags wrong")
	}
}
