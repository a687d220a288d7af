package core

import (
	"sort"

	"repro/internal/air"
	"repro/internal/asdg"
)

// Weight computes the reference weight w(x, G) of §3: the number of
// array element references that contraction of x would eliminate — the
// number of array-level references to x, each weighted by the size of
// the region over which it occurs.
func Weight(g *asdg.Graph, x string) int {
	return weights(g, []string{x})[x]
}

// weights computes w(x, G) for every x in names in one pass over the
// graph's statements.
func weights(g *asdg.Graph, names []string) map[string]int {
	w := make(map[string]int, len(names))
	for _, x := range names {
		w[x] = 0
	}
	count := func(x string, size int) {
		if _, ok := w[x]; ok {
			w[x] += size
		}
	}
	for v := 0; v < g.N(); v++ {
		switch s := g.Stmts[v].(type) {
		case *air.ArrayStmt:
			count(s.LHS, s.Region.Size())
			for _, r := range s.Reads() {
				count(r.Array, s.Region.Size())
			}
		case *air.ReduceStmt:
			for _, r := range air.Refs(s.Body) {
				count(r.Array, s.Region.Size())
			}
		}
	}
	return w
}

// ByDecreasingWeight sorts array names by decreasing w(x, G), breaking
// ties by name for determinism (line 3 of Fig. 3). Each weight is
// computed once, before sorting.
func ByDecreasingWeight(g *asdg.Graph, names []string) []string {
	w := weights(g, names)
	out := append([]string(nil), names...)
	sort.SliceStable(out, func(i, j int) bool {
		wi, wj := w[out[i]], w[out[j]]
		if wi != wj {
			return wi > wj
		}
		return out[i] < out[j]
	})
	return out
}

// fusionPartitionOK is the FUSION-PARTITION? predicate: merging the
// clusters in cs must yield a valid fusion partition (Definition 5).
// Inter-cluster cycles need not be checked here — the caller has
// already applied Grow (the paper makes the same observation).
//
// The checks live in diagnoseFusion (diagnose.go), which shares one
// implementation between the hot greedy loops (which only need the
// boolean) and the remarks engine (which needs the witness). We admit
// exact translates of a region as well as equal regions (equal
// extents, shifted bounds): realigned compiler temporaries produce
// such clusters, and scalarization guards the shifted statements
// inside the union loop nest.
func fusionPartitionOK(p *Partition, cs map[int]bool) bool {
	return diagnoseFusion(p, cs).OK
}

// contractible is the CONTRACTIBLE? predicate (Definition 6): after
// fusing the clusters in cs, array x is contractible iff every
// dependence due to x runs between vertices of the fused cluster and
// carries a null unconstrained distance vector. The caller must also
// have established that x's live range permits elimination (package
// liveness).
func contractible(p *Partition, x string, cs map[int]bool) bool {
	return diagnoseContraction(p, x, cs).OK
}

// FusionOK exposes the FUSION-PARTITION? predicate to external plan
// generators: merging the clusters in cs must yield a valid fusion
// partition. As with fusionPartitionOK, the caller is responsible for
// closing cs under Grow first.
func FusionOK(p *Partition, cs map[int]bool) bool {
	return fusionPartitionOK(p, cs)
}

// ContractionOK exposes the CONTRACTIBLE? predicate to external plan
// generators: after fusing the clusters in cs, array x is contractible
// iff every dependence due to x is confined to the fused cluster with
// a null unconstrained distance vector. Liveness candidacy is the
// caller's obligation, exactly as for contractible.
func ContractionOK(p *Partition, x string, cs map[int]bool) bool {
	return contractible(p, x, cs)
}

// FusionForContraction is the algorithm of Fig. 3. candidates is the
// set of arrays whose live ranges allow elimination; the algorithm
// considers them in order of decreasing reference weight and fuses the
// clusters referencing each when that makes the array contractible.
// It returns the partition and the set of arrays for which contraction
// was enabled.
//
// When p is non-nil the algorithm refines the given partition instead
// of starting from the trivial one (used to layer strategies).
func FusionForContraction(g *asdg.Graph, p *Partition, candidates []string) (*Partition, map[string]bool) {
	if p == nil {
		p = Trivial(g)
	}
	contracted := map[string]bool{}
	cg := p.ClusterGraph() // rebuilt after each merge
	for _, x := range ByDecreasingWeight(g, candidates) {
		c := p.clustersReferencing(x)
		if len(c) == 0 {
			continue
		}
		for d := range cg.Grow(c) {
			c[d] = true
		}
		if contractible(p, x, c) && fusionPartitionOK(p, c) {
			p.MergeSet(c)
			cg = p.ClusterGraph()
			contracted[x] = true
		}
	}
	return p, contracted
}

// FusionForLocality is the variant described at the end of §4.1: the
// same greedy weight-ordered collective fusion, with the CONTRACTIBLE?
// test removed — all statements referencing the array with the largest
// locality benefit are fused when legal.
func FusionForLocality(g *asdg.Graph, p *Partition, arrays []string) *Partition {
	if p == nil {
		p = Trivial(g)
	}
	cg := p.ClusterGraph() // rebuilt after each merge
	for _, x := range ByDecreasingWeight(g, arrays) {
		c := p.clustersReferencing(x)
		if len(c) < 2 {
			continue
		}
		for d := range cg.Grow(c) {
			c[d] = true
		}
		if fusionPartitionOK(p, c) {
			p.MergeSet(c)
			cg = p.ClusterGraph()
		}
	}
	return p
}

// GreedyPairwise performs all legal fusion by a greedy pairwise
// algorithm (the f4 transformation of §5.4): repeatedly merge the
// first cluster pair, in ascending order of representatives, that is
// legal together with the cycle closure Grow demands, until no pair
// can be merged.
func GreedyPairwise(p *Partition) *Partition {
	return pairwise(p, nil)
}

// pairwise is the scan loop of greedy pairwise fusion, shared by
// GreedyPairwise and GreedyPairwiseShared. It tries the cluster pairs
// (i, j), i < j, in lexicographic order of node index (ascending
// representatives); a pair is tried when it passes the pre-filter
// (ClusterGraph.compatible) and accept (nil accepts every pair), and
// merged when FUSION-PARTITION? accepts its GROW closure.
//
// After a merge the scan resumes at the merged cluster's position
// instead of restarting at the first pair. This is exact, and the
// plans equal a restart's: every earlier pair either failed already
// or, as a vertex set, contains the GROW closure of a pair that
// failed, and every Definition 5 test is anti-monotone in the vertex
// set (DESIGN.md §4, "Complexity of the fusion passes"). accept must
// keep that property: if it admits a pair containing a merged
// cluster, it must admit that pair with one of the merged cluster's
// parts too.
func pairwise(p *Partition, accept func(cg *ClusterGraph, i, j int) bool) *Partition {
	cg := p.ClusterGraph()
	for i := 0; i < len(cg.reps); i++ {
		for j := i + 1; j < len(cg.reps); j++ {
			if !cg.compatible(i, j) || (accept != nil && !accept(cg, i, j)) {
				continue
			}
			cs, ok := cg.PairClosure(cg.reps[i], cg.reps[j])
			if !ok {
				continue
			}
			p.MergeSet(cs)
			m := cg.reps[i]
			for c := range cs {
				m = min(m, c)
			}
			cg = p.ClusterGraph()
			i, j = cg.node[m], cg.node[m] // resume at (merged, next)
		}
	}
	return p
}

// AllArrays returns the names of arrays referenced by fusible
// statements of the graph, for locality-fusion candidate lists.
func AllArrays(g *asdg.Graph) []string {
	seen := map[string]bool{}
	var out []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for v := 0; v < g.N(); v++ {
		switch s := g.Stmts[v].(type) {
		case *air.ArrayStmt:
			add(s.LHS)
			for _, r := range s.Reads() {
				add(r.Array)
			}
		case *air.ReduceStmt:
			for _, r := range air.Refs(s.Body) {
				add(r.Array)
			}
		}
	}
	sort.Strings(out)
	return out
}
