package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/programs"
)

// counts are the exact quality-of-result figures of one compilation.
type counts struct {
	contracted, nests, proven, ordered int
}

func countsOf(c *driver.Compilation) counts {
	s := core.CountStaticArrays(c.AIR, c.Plan)
	k := counts{contracted: s.ContractedCompiler + s.ContractedUser, nests: c.LIR.CountNests()}
	if c.Bounds != nil {
		k.proven = c.Bounds.NumProven
	}
	if c.Races != nil {
		k.ordered = c.Races.NumOrdered
	}
	return k
}

// compileCell is one benchmark × {seq, p2} × {c2+f3, c2+f4} compilation.
type compileCell struct {
	name string // "<bench>.<seq|p2>.<c2f3|c2f4>"
	src  string
	opt  driver.Options
	want counts // from set-up; every timed compilation must match
}

// compileCells returns the 24 cells of the compile workload.
func compileCells() []compileCell {
	var cells []compileCell
	for _, b := range programs.All() {
		for _, procs := range []int{1, 2} {
			for _, lvl := range []core.Level{core.C2F3, core.C2F4} {
				opt := driver.Options{Level: lvl, Configs: map[string]int64{b.SizeConfig: b.DefaultSize}}
				mode := "seq"
				if procs > 1 {
					co := comm.DefaultOptions(procs)
					opt.Comm = &co
					mode = "p2"
				}
				lname := map[core.Level]string{core.C2F3: "c2f3", core.C2F4: "c2f4"}[lvl]
				cells = append(cells, compileCell{name: b.Name + "." + mode + "." + lname, src: b.Source, opt: opt})
			}
		}
	}
	return cells
}

// compileWL compiles every cell once per round, in a seeded order, and
// executes nothing: parse through race do all the work.
type compileWL struct {
	cells []compileCell
}

func (w *compileWL) setup() error {
	w.cells = compileCells()
	for i := range w.cells {
		c, err := driver.CompileCtx(context.Background(), w.cells[i].src, w.cells[i].opt)
		if err != nil {
			return fmt.Errorf("compile %s: %w", w.cells[i].name, err)
		}
		w.cells[i].want = countsOf(c)
	}
	return nil
}

func (w *compileWL) round(rec *recorder) {
	for _, i := range rec.rng.Perm(len(w.cells)) {
		cell := &w.cells[i]
		opt := cell.opt
		rec.settle()
		op := rec.tr.newOp()
		root := rec.tr.start("compile."+cell.name, 0, op)
		opt.Hooks = rec.tr.hooks(root, op)
		t0 := time.Now()
		c, err := driver.CompileCtx(context.Background(), cell.src, opt)
		d := time.Since(t0)
		rec.tr.end(root, "")
		if err == nil {
			if got := countsOf(c); got != cell.want {
				err = fmt.Errorf("compile %s: counts %+v, set-up had %+v", cell.name, got, cell.want)
			}
		}
		rec.op("compile", d, err)
	}
}

func (w *compileWL) named(rec *recorder) map[string]sample {
	s := map[string]sample{
		"compile_ms_p50": rec.pct("compile", 0.5),
		"compile_ms_p90": rec.pct("compile", 0.9),
	}
	n := rec.series["compile"]
	s["compile_per_s"] = sample{value: float64(len(n)) / (sum(n) / 1000), n: len(n)}
	return s
}

// layers reports, as medians over the traced rounds, each phase's self
// time per round, the wall time of each cell, and the share of compile
// wall time no phase span covers; plus the exact counts of one round.
func (w *compileWL) layers(rounds [][]span, rec *recorder) map[string]float64 {
	per := map[string][]float64{}
	for _, spans := range rounds {
		self := selfTimes(spans)
		var wall, phaseTime time.Duration
		for _, s := range spans {
			if s.Parent == 0 {
				wall += s.End - s.Start
				per[s.Name+"_ms"] = append(per[s.Name+"_ms"], ms(s.End-s.Start))
			}
		}
		for _, p := range phases {
			per[p.metric] = append(per[p.metric], ms(self[p.span]))
			phaseTime += self[p.span]
		}
		per["compile.unattributed_pct"] = append(per["compile.unattributed_pct"], 100*(1-float64(phaseTime)/float64(wall)))
	}
	out := map[string]float64{}
	for k, v := range per {
		out[k] = median(v)
	}
	var total counts
	for _, c := range w.cells {
		total.contracted += c.want.contracted
		total.nests += c.want.nests
		total.proven += c.want.proven
		total.ordered += c.want.ordered
	}
	out["core.contracted_arrays"] = float64(total.contracted)
	out["core.loop_nests"] = float64(total.nests)
	out["absint.proven_sites"] = float64(total.proven)
	out["mhp.ordered_pairs"] = float64(total.ordered)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
