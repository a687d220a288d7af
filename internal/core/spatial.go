package core

// GreedyPairwiseShared is the spatial-locality-sensitive variant of
// greedy pairwise fusion that §5.4 leaves to future work: SP slowed
// down under plain f4's indiscriminate fusion everywhere except where
// independent statements actually share operands. This variant merges
// a cluster pair only when the two clusters reference a common array —
// fusing exactly the statements whose combination yields
// register/cache reuse, and leaving unrelated statements in their own
// nests where they stream best.
//
// The sharing test keeps pairwise's resumed scan exact: a cluster that
// shares an array with a merged cluster shares it with one of the
// clusters merged into it. (A threshold of two or more shared arrays
// would not have this property.)
func GreedyPairwiseShared(p *Partition) *Partition {
	return pairwise(p, func(cg *ClusterGraph, i, j int) bool {
		a, b := cg.arraysOf(i), cg.arraysOf(j)
		if len(b) < len(a) {
			a, b = b, a
		}
		for x := range a {
			if b[x] {
				return true
			}
		}
		return false
	})
}
