package asdg

import (
	"repro/internal/air"
	"repro/internal/sema"
)

// IsFusible reports whether vertex v may join a fusible cluster.
// Normalized array statements are the fusion candidates of the paper;
// we additionally allow full reductions to join clusters as consumers:
// a reduction's local accumulation loop iterates element-wise over its
// region exactly like an array statement, and fusing it is what lets
// benchmarks such as NAS EP eliminate every array. The reduction's
// global combine (communication) stays outside the cluster.
func (g *Graph) IsFusible(v int) bool {
	switch g.Stmts[v].(type) {
	case *air.ArrayStmt, *air.ReduceStmt:
		return true
	}
	return false
}

// StmtRegion returns the iteration region of a fusible vertex, or nil
// for unnormalized statements.
func (g *Graph) StmtRegion(v int) *sema.Region {
	switch s := g.Stmts[v].(type) {
	case *air.ArrayStmt:
		return s.Region
	case *air.ReduceStmt:
		return s.Region
	}
	return nil
}

// References reports whether vertex v references array x (as a read,
// write, reduction input, or communication subject).
func (g *Graph) References(v int, x string) bool {
	for _, y := range g.refs[v] {
		if y == x {
			return true
		}
	}
	return false
}

// Refs returns the distinct arrays vertex v references, in order of
// first reference. The slice is shared with the graph; do not modify it.
func (g *Graph) Refs(v int) []string { return g.refs[v] }

// referencedArrays lists the distinct arrays a statement references:
// an array statement's target and reads, a reduction's inputs, a
// communication statement's subject.
func referencedArrays(s air.Stmt) []string {
	var out []string
	add := func(x string) {
		for _, y := range out {
			if y == x {
				return
			}
		}
		out = append(out, x)
	}
	switch s := s.(type) {
	case *air.ArrayStmt:
		add(s.LHS)
		for _, r := range s.Reads() {
			add(r.Array)
		}
	case *air.ReduceStmt:
		for _, r := range air.Refs(s.Body) {
			add(r.Array)
		}
	case *air.CommStmt:
		add(s.Array)
	}
	return out
}
