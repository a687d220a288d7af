package core

import (
	"sort"

	"repro/internal/sema"
)

// ClusterGraph is the condensation of a partition's ASDG: one node per
// cluster, numbered in ascending order of representative, with
// deduplicated successor and predecessor lists. Building it costs
// O(n + e); GROW, the acyclicity test and the topological order all
// run on it in O(k + e') for k clusters and e' cluster edges.
//
// A ClusterGraph is a snapshot: MergeSet on its partition makes it
// stale, and the caller must build a new one. It carries scratch
// space for GROW, so it is not safe for concurrent use.
type ClusterGraph struct {
	p       *Partition
	reps    []int   // node -> cluster representative, ascending
	node    []int   // vertex -> node of its cluster
	members [][]int // node -> member vertices, ascending
	succ    [][]int
	pred    [][]int

	// The vertex-local tests of FUSION-PARTITION?, summarized per
	// node on first use: local[i] holds when every member of node i
	// is fusible, conformable with the first member (region reg[i])
	// and in the first member's communication segment (seg[i]; 0
	// without segments). See compatible.
	local []bool
	reg   []*sema.Region
	seg   []int

	down, up []bool // GROW scratch
	stack    []int
	arrays   []map[string]bool // node -> referenced arrays, filled lazily
}

// ClusterGraph builds the condensation of the partition's ASDG.
func (p *Partition) ClusterGraph() *ClusterGraph {
	g := p.G
	cg := &ClusterGraph{p: p, node: make([]int, g.N())}
	// Representatives are cluster minima, so rep[v] <= v and the node
	// of rep[v] is known by the time v is visited.
	for v, r := range p.rep {
		if v == r {
			cg.node[v] = len(cg.reps)
			cg.reps = append(cg.reps, v)
		} else {
			cg.node[v] = cg.node[r]
		}
	}
	k := len(cg.reps)
	vertices := make([]int, len(cg.node))
	for v := range vertices {
		vertices[v] = v
	}
	cg.members = groupBy(k, cg.node, vertices)

	stamp := make([]int, k) // stamp[b] == a+1: edge a->b already recorded
	var from, to []int
	for a, ms := range cg.members {
		for _, v := range ms {
			for _, w := range g.Succ(v) {
				b := cg.node[w]
				if b != a && stamp[b] != a+1 {
					stamp[b] = a + 1
					from, to = append(from, a), append(to, b)
				}
			}
		}
	}
	cg.succ, cg.pred = groupBy(k, from, to), groupBy(k, to, from)
	return cg
}

// groupBy returns, for each key in [0, k), the vals whose keys[i]
// equals it, in input order, as sub-slices of one backing array.
func groupBy(k int, keys, vals []int) [][]int {
	start := make([]int, k+1)
	for _, key := range keys {
		start[key+1]++
	}
	for i := 0; i < k; i++ {
		start[i+1] += start[i]
	}
	flat := make([]int, len(vals))
	next := append([]int(nil), start[:k]...)
	for i, key := range keys {
		flat[next[key]] = vals[i]
		next[key]++
	}
	out := make([][]int, k)
	for i := range out {
		out[i] = flat[start[i]:start[i+1]:start[i+1]]
	}
	return out
}

// summarize fills the per-node summary of the vertex-local tests.
func (cg *ClusterGraph) summarize() {
	g, k := cg.p.G, len(cg.reps)
	cg.local, cg.reg, cg.seg = make([]bool, k), make([]*sema.Region, k), make([]int, k)
	for i, ms := range cg.members {
		v0 := ms[0]
		cg.reg[i] = g.StmtRegion(v0)
		if g.Seg != nil {
			cg.seg[i] = g.Seg[v0]
		}
		cg.local[i] = true
		for _, v := range ms {
			if !g.IsFusible(v) || !Translates(cg.reg[i], g.StmtRegion(v)) ||
				(g.Seg != nil && g.Seg[v] != cg.seg[i]) {
				cg.local[i] = false
				break
			}
		}
	}
}

// Clusters returns the cluster representatives in ascending order.
// The slice is shared with the graph; do not modify it.
func (cg *ClusterGraph) Clusters() []int { return cg.reps }

// Grow implements GROW(c, G): the clusters not in c that are reachable
// from c and that reach c — exactly the clusters that would sit on an
// inter-fusible-cluster dependence cycle if c were fused (line 6 of
// Fig. 3).
func (cg *ClusterGraph) Grow(c map[int]bool) map[int]bool {
	seeds := make([]int, 0, len(c))
	for r := range c {
		seeds = append(seeds, cg.node[r])
	}
	out := map[int]bool{}
	for _, d := range cg.grow(seeds) {
		out[cg.reps[d]] = true
	}
	return out
}

// compatible is the pair pre-filter: it holds unless the vertices of
// nodes i and j alone already fail a vertex-local test of
// FUSION-PARTITION? — fusibility, region conformability (Translates is
// an equivalence) or a shared communication segment. The GROW closure
// of the pair contains those vertices, so it would fail the same test:
// rejecting here changes no verdict, it only skips GROW.
func (cg *ClusterGraph) compatible(i, j int) bool {
	if cg.local == nil {
		cg.summarize()
	}
	return cg.local[i] && cg.local[j] && cg.seg[i] == cg.seg[j] &&
		Translates(cg.reg[i], cg.reg[j])
}

// PairClosure is one candidate of greedy pairwise fusion: the set that
// merging clusters a and b (by representative) must fuse — the pair
// plus its GROW closure — and whether FUSION-PARTITION? accepts it.
// A pair failing compatible is rejected before GROW runs.
func (cg *ClusterGraph) PairClosure(a, b int) (map[int]bool, bool) {
	i, j := cg.node[a], cg.node[b]
	if !cg.compatible(i, j) {
		return nil, false
	}
	cs := map[int]bool{a: true, b: true}
	for _, d := range cg.grow([]int{i, j}) {
		cs[cg.reps[d]] = true
	}
	return cs, fusionPartitionOK(cg.p, cs)
}

// grow returns, in ascending order, the nodes outside seeds that are
// both reachable from seeds and reaching seeds.
func (cg *ClusterGraph) grow(seeds []int) []int {
	if cg.down == nil {
		cg.down, cg.up = make([]bool, len(cg.reps)), make([]bool, len(cg.reps))
	} else {
		clear(cg.down)
		clear(cg.up)
	}
	cg.mark(cg.down, seeds, cg.succ)
	cg.mark(cg.up, seeds, cg.pred)
	for _, s := range seeds {
		cg.down[s] = false
	}
	var out []int
	for d, ok := range cg.down {
		if ok && cg.up[d] {
			out = append(out, d)
		}
	}
	return out
}

// mark sets seen for every node reachable from seeds along adj by a
// path of at least one edge.
func (cg *ClusterGraph) mark(seen []bool, seeds []int, adj [][]int) {
	stack := append(cg.stack[:0], seeds...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	cg.stack = stack
}

// acyclic reports whether the condensation is a DAG.
func (cg *ClusterGraph) acyclic() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int8, len(cg.reps))
	var visit func(v int) bool
	visit = func(v int) bool {
		color[v] = gray
		for _, w := range cg.succ[v] {
			switch color[w] {
			case gray:
				return false
			case white:
				if !visit(w) {
					return false
				}
			}
		}
		color[v] = black
		return true
	}
	for v := range cg.reps {
		if color[v] == white && !visit(v) {
			return false
		}
	}
	return true
}

// topo returns the representatives in a topological order of the
// condensation, taking the smallest ready representative first so the
// order stays deterministic and close to program order.
func (cg *ClusterGraph) topo() []int {
	indeg := make([]int, len(cg.reps))
	var ready []int
	for v := range cg.reps {
		indeg[v] = len(cg.pred[v])
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	out := make([]int, 0, len(cg.reps))
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		out = append(out, cg.reps[v])
		for _, w := range cg.succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = insertSorted(ready, w)
			}
		}
	}
	return out
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// arraysOf returns the arrays referenced by the members of node i,
// computed on first use.
func (cg *ClusterGraph) arraysOf(i int) map[string]bool {
	if cg.arrays == nil {
		cg.arrays = make([]map[string]bool, len(cg.reps))
	}
	if cg.arrays[i] == nil {
		set := map[string]bool{}
		for _, v := range cg.members[i] {
			for _, x := range cg.p.G.Refs(v) {
				set[x] = true
			}
		}
		cg.arrays[i] = set
	}
	return cg.arrays[i]
}
