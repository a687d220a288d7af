package core

import (
	"fmt"
	"strings"

	"repro/internal/air"
	"repro/internal/asdg"
	"repro/internal/dep"
)

// Partition is a fusion partition (Definition 5) of an ASDG: a
// partitioning of the graph's vertices into fusible clusters. Each
// cluster is identified by its representative, the smallest vertex
// index it contains.
type Partition struct {
	G   *asdg.Graph
	rep []int // vertex -> cluster representative

	// NoCarriedAnti forbids clusters whose internal dependences
	// include a non-null anti dependence. The paper infers this
	// restriction in the APR and Cray compilers ("unable to fuse
	// loops that carry anti-dependences"); the emulations set it.
	NoCarriedAnti bool
}

// Trivial returns the partition with one statement per cluster.
func Trivial(g *asdg.Graph) *Partition {
	p := &Partition{G: g, rep: make([]int, g.N())}
	for v := range p.rep {
		p.rep[v] = v
	}
	return p
}

// FromClusters builds a partition from an explicit cluster list: each
// inner slice names the vertices of one cluster; vertices not listed
// become singletons. It validates indices and disjointness only — the
// caller proves Definition 5 legality separately (Validate).
func FromClusters(g *asdg.Graph, clusters [][]int) (*Partition, error) {
	p := Trivial(g)
	seen := make([]bool, g.N())
	for _, members := range clusters {
		min := -1
		for _, v := range members {
			if v < 0 || v >= g.N() {
				return nil, fmt.Errorf("cluster member v%d out of range [0,%d)", v, g.N())
			}
			if seen[v] {
				return nil, fmt.Errorf("vertex v%d appears in two clusters", v)
			}
			seen[v] = true
			if min < 0 || v < min {
				min = v
			}
		}
		for _, v := range members {
			p.rep[v] = min
		}
	}
	return p, nil
}

// Clone returns an independent copy of the partition.
func (p *Partition) Clone() *Partition {
	q := &Partition{G: p.G, rep: make([]int, len(p.rep)), NoCarriedAnti: p.NoCarriedAnti}
	copy(q.rep, p.rep)
	return q
}

// ClusterOf returns the representative of the cluster containing v.
func (p *Partition) ClusterOf(v int) int { return p.rep[v] }

// NumClusters returns the number of clusters.
func (p *Partition) NumClusters() int {
	n := 0
	for v, r := range p.rep {
		if v == r {
			n++
		}
	}
	return n
}

// Members returns the vertices of the cluster with representative c,
// in program order.
func (p *Partition) Members(c int) []int {
	var out []int
	for v, r := range p.rep {
		if r == c {
			out = append(out, v)
		}
	}
	return out
}

// Clusters returns all cluster representatives in ascending order.
func (p *Partition) Clusters() []int {
	var out []int
	for v, r := range p.rep {
		if v == r {
			out = append(out, v)
		}
	}
	return out
}

// MergeSet unions the given clusters (by representative) into one,
// represented by the smallest member, mirroring lines 8–10 of Fig. 3.
func (p *Partition) MergeSet(cs map[int]bool) {
	min := -1
	for c := range cs {
		if min < 0 || c < min {
			min = c
		}
	}
	if min < 0 {
		return
	}
	for v, r := range p.rep {
		if cs[r] {
			p.rep[v] = min
		}
	}
}

// clustersReferencing returns the representatives of clusters that
// contain a reference to array x (line 5 of Fig. 3).
func (p *Partition) clustersReferencing(x string) map[int]bool {
	out := map[int]bool{}
	for v := 0; v < p.G.N(); v++ {
		if p.G.References(v, x) {
			out[p.rep[v]] = true
		}
	}
	return out
}

// ClustersReferencing exposes clustersReferencing for external plan
// generators (the tune search engine and ApplySpec validation).
func (p *Partition) ClustersReferencing(x string) map[int]bool {
	return p.clustersReferencing(x)
}

// Acyclic reports whether the cluster-level condensation is a DAG
// (condition (iii) of Definition 5).
func (p *Partition) Acyclic() bool {
	return p.ClusterGraph().acyclic()
}

// IntraVectors returns the unconstrained distance vectors of every
// dependence between vertices that would share a cluster if the
// clusters in cs were fused. ok is false if such a dependence has no
// vector (ordering-only), which forbids fusion outright. When the
// partition forbids carried anti dependences, a non-null anti vector
// also clears ok.
func (p *Partition) IntraVectors(cs map[int]bool) (vectors []air.Offset, flowsNull bool, ok bool) {
	flowsNull = true
	ok = true
	for _, e := range p.G.Edges {
		if !cs[p.rep[e.From]] || !cs[p.rep[e.To]] {
			continue
		}
		for _, it := range e.Items {
			if !it.Vector {
				ok = false
				continue
			}
			vectors = append(vectors, it.U)
			if it.Kind == dep.Flow && !it.U.IsZero() {
				flowsNull = false
			}
			if p.NoCarriedAnti && it.Kind == dep.Anti && !it.U.IsZero() {
				ok = false
			}
		}
	}
	return vectors, flowsNull, ok
}

// clusterVectors returns the vectors of dependences internal to the
// existing cluster c.
func (p *Partition) clusterVectors(c int) []air.Offset {
	cs := map[int]bool{c: true}
	vs, _, _ := p.IntraVectors(cs)
	return vs
}

// LoopStructureFor computes the loop structure vector for an existing
// cluster: the Fig. 4 algorithm over its internal dependences, or the
// identity structure when unconstrained. The bool is false when no
// legal structure exists (which a valid partition never exhibits).
func (p *Partition) LoopStructureFor(c int) (dep.LoopStructure, bool) {
	members := p.Members(c)
	reg := p.G.StmtRegion(members[0])
	if reg == nil {
		return nil, true // unnormalized singleton: no loop nest
	}
	vs := p.clusterVectors(c)
	if len(vs) == 0 {
		return Identity(reg.Rank()), true
	}
	return FindLoopStructure(reg.Rank(), vs)
}

// Validate re-checks every condition of Definition 5 on the current
// partition; it is used by tests and property checks, not by the
// fusion algorithms themselves.
func (p *Partition) Validate() error {
	for _, c := range p.Clusters() {
		members := p.Members(c)
		if len(members) == 1 {
			continue
		}
		var reg = p.G.StmtRegion(members[0])
		for _, v := range members {
			if !p.G.IsFusible(v) {
				return fmt.Errorf("cluster %d contains unfusible statement v%d", c, v)
			}
			r := p.G.StmtRegion(v)
			if reg == nil || r == nil || !Translates(reg, r) {
				return fmt.Errorf("cluster %d mixes non-conformable regions", c)
			}
		}
		cs := map[int]bool{c: true}
		vectors, flowsNull, ok := p.IntraVectors(cs)
		if !ok {
			return fmt.Errorf("cluster %d has an ordering-only internal dependence", c)
		}
		if !flowsNull {
			return fmt.Errorf("cluster %d carries a non-null flow dependence", c)
		}
		if _, found := FindLoopStructure(reg.Rank(), vectors); !found {
			return fmt.Errorf("cluster %d has no legal loop structure", c)
		}
	}
	if !p.Acyclic() {
		return fmt.Errorf("partition has an inter-cluster cycle")
	}
	return nil
}

// TopoClusters returns the cluster representatives in a topological
// order of the cluster condensation, breaking ties by program order.
func (p *Partition) TopoClusters() []int {
	return p.ClusterGraph().topo()
}

// String renders the partition as {v0 v2} {v1} ... in topological order.
func (p *Partition) String() string {
	var parts []string
	for _, c := range p.TopoClusters() {
		ms := p.Members(c)
		strs := make([]string, len(ms))
		for i, v := range ms {
			strs[i] = fmt.Sprintf("v%d", v)
		}
		parts = append(parts, "{"+strings.Join(strs, " ")+"}")
	}
	return strings.Join(parts, " ")
}
