// Package reference keeps the unoptimized form of greedy pairwise
// fusion as an oracle for differential tests: GROW recomputed from the
// ASDG's edges for every candidate pair, no pair pre-filter, and a
// restart from the first pair after every merge. core.GreedyPairwise
// and core.GreedyPairwiseShared must produce the same partitions,
// vertex for vertex. Only tests import this package.
package reference

import (
	"repro/internal/air"
	"repro/internal/core"
)

// Grow is GROW(c, G) by plain reachability over the partition's
// cluster-level successor relation, rebuilt from the ASDG's edges on
// every call: the clusters not in c that are reachable from c and
// that reach c.
func Grow(p *core.Partition, c map[int]bool) map[int]bool {
	succ, pred := map[int][]int{}, map[int][]int{}
	for _, e := range p.G.Edges {
		a, b := p.ClusterOf(e.From), p.ClusterOf(e.To)
		if a != b {
			succ[a] = append(succ[a], b)
			pred[b] = append(pred[b], a)
		}
	}
	reach := func(adj map[int][]int) map[int]bool {
		seen := map[int]bool{}
		var stack []int
		for s := range c {
			stack = append(stack, s)
		}
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
		return seen
	}
	down, up := reach(succ), reach(pred)
	out := map[int]bool{}
	for v := range down {
		if up[v] && !c[v] {
			out[v] = true
		}
	}
	return out
}

// GreedyPairwise is greedy pairwise fusion (c2+f4) the slow way.
func GreedyPairwise(p *core.Partition) *core.Partition {
	return pairwise(p, func(a, b int) bool { return true })
}

// GreedyPairwiseShared is the operand-sharing variant (c2+f4s) the
// slow way: a pair is a candidate only when the two clusters reference
// a common array.
func GreedyPairwiseShared(p *core.Partition) *core.Partition {
	refs := func(c int) map[string]bool {
		out := map[string]bool{}
		for _, v := range p.Members(c) {
			switch s := p.G.Stmts[v].(type) {
			case *air.ArrayStmt:
				out[s.LHS] = true
				for _, r := range s.Reads() {
					out[r.Array] = true
				}
			case *air.ReduceStmt:
				for _, r := range air.Refs(s.Body) {
					out[r.Array] = true
				}
			}
		}
		return out
	}
	return pairwise(p, func(a, b int) bool {
		rb := refs(b)
		for x := range refs(a) {
			if rb[x] {
				return true
			}
		}
		return false
	})
}

// pairwise merges the first accepted pair, in ascending order of
// representatives, whose GROW closure FUSION-PARTITION? accepts, then
// starts over, until no pair merges.
func pairwise(p *core.Partition, accept func(a, b int) bool) *core.Partition {
	for {
		merged := false
		cl := p.Clusters()
		for i := 0; i < len(cl) && !merged; i++ {
			for j := i + 1; j < len(cl) && !merged; j++ {
				if !accept(cl[i], cl[j]) {
					continue
				}
				c := map[int]bool{cl[i]: true, cl[j]: true}
				for d := range Grow(p, c) {
					c[d] = true
				}
				if core.FusionOK(p, c) {
					p.MergeSet(c)
					merged = true
				}
			}
		}
		if !merged {
			return p
		}
	}
}
