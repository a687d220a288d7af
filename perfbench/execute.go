package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/backend"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/distvm"
	"repro/internal/driver"
	"repro/internal/lazy"
	"repro/internal/programs"
	"repro/internal/vm"
)

const (
	lazyN     = 256 // Jacobi grid edge
	lazySteps = 10  // Evals per round; even, so the buffers end where they began
)

// state is the final array and scalar contents of a run.
type state struct {
	arrays  map[string][]float64
	scalars map[string]float64
}

// diff names the first element of want that got does not reproduce.
func (want state) diff(got state) error {
	names := make([]string, 0, len(want.arrays))
	for a := range want.arrays {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		w, g := want.arrays[a], got.arrays[a]
		if len(w) != len(g) {
			return fmt.Errorf("array %s: %d elements, want %d", a, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				return fmt.Errorf("array %s[%d] = %v, want %v", a, i, g[i], w[i])
			}
		}
	}
	for s, w := range want.scalars {
		if g, ok := got.scalars[s]; !ok || math.Abs(g-w) > scalarTol*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("scalar %s = %v, want %v", s, g, w)
		}
	}
	return nil
}

// scalarTol is the relative tolerance on scalars: distvm combines
// reduction partials in processor order, so a reduction result may
// differ from the sequential one in its last bits; arrays never do.
const scalarTol = 1e-12

// execBench is one benchmark built for every engine.
type execBench struct {
	name string
	seq  *driver.Compilation // c2+f3, sequential
	dist *driver.Compilation // c2+f3 with communication for p=2
	art  *backend.Artifact   // native binary of seq
	// want is the baseline (no fusion) compilation's VM output: the VM
	// and the native binary must print exactly this.
	want string
	// distWant is the VM's final state on the p=2 LIR, which distvm
	// must reproduce; distBase is that VM run's time, the base of
	// distvm.slowdown_vs_vm.
	distWant state
	distBase time.Duration
}

// executeWL times execution only: set-up compiles the six benchmarks
// and builds their native binaries; each round runs every benchmark on
// the VM, on distvm at p=2 and natively, in a seeded order, then
// lazySteps steady-state Evals of a lazy Jacobi solver.
type executeWL struct {
	seed    int64
	work    string
	benches []*execBench
	buildMS float64
	lz      *lazyJacobi
	lzWant  []float64 // residual trajectory of a baseline-level engine
}

func (w *executeWL) setup() error {
	ctx := context.Background()
	st, err := backend.Open(w.work)
	if err != nil {
		return err
	}
	for _, b := range programs.All() {
		cfg := map[string]int64{b.SizeConfig: b.DefaultSize}
		eb := &execBench{name: b.Name}
		base, err := driver.CompileCtx(ctx, b.Source, driver.Options{Level: core.Baseline, Configs: cfg})
		if err != nil {
			return fmt.Errorf("%s baseline: %w", b.Name, err)
		}
		var out bytes.Buffer
		if _, _, err := vm.Run(base.LIR, vm.Options{Out: &out, Bounds: base.Bounds}); err != nil {
			return fmt.Errorf("%s baseline run: %w", b.Name, err)
		}
		eb.want = out.String()
		if eb.seq, err = driver.CompileCtx(ctx, b.Source, driver.Options{Level: core.C2F3, Configs: cfg}); err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		co := comm.DefaultOptions(2)
		if eb.dist, err = driver.CompileCtx(ctx, b.Source, driver.Options{Level: core.C2F3, Configs: cfg, Comm: &co}); err != nil {
			return fmt.Errorf("%s p=2: %w", b.Name, err)
		}
		t0 := time.Now()
		m, _, err := vm.Run(eb.dist.LIR, vm.Options{Bounds: eb.dist.Bounds})
		eb.distBase = time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s p=2 on the VM: %w", b.Name, err)
		}
		eb.distWant = vmState(eb.dist, m)
		eb.art, _, err = st.BuildProgramBounds(ctx, eb.seq.LIR, eb.seq.Bounds)
		if err != nil {
			return fmt.Errorf("%s native build: %w", b.Name, err)
		}
		w.buildMS += ms(eb.art.Build)
		w.benches = append(w.benches, eb)
	}

	init := make([]float64, lazyN*lazyN)
	rng := rand.New(rand.NewSource(w.seed))
	for i := range init {
		init[i] = rng.Float64()
	}
	ref, err := newLazyJacobi(core.Baseline, init)
	if err != nil {
		return err
	}
	if w.lzWant, _, err = ref.steps(nil); err != nil {
		return fmt.Errorf("lazy baseline: %w", err)
	}
	if w.lz, err = newLazyJacobi(core.C2F4S, init); err != nil {
		return err
	}
	// The first pass compiles the sweep; rounds then run steady state.
	_, _, err = w.lz.steps(nil)
	return err
}

// vmState snapshots the non-contracted arrays and the scalars of c's
// program after a VM run.
func vmState(c *driver.Compilation, m *vm.Machine) state {
	s := state{arrays: map[string][]float64{}, scalars: map[string]float64{}}
	for a, info := range c.AIR.Arrays {
		if !info.Contracted {
			s.arrays[a] = append([]float64(nil), m.ArrayData(a)...)
		}
	}
	for name := range c.AIR.Scalars {
		if v, ok := m.Scalar(name); ok {
			s.scalars[name] = v
		}
	}
	return s
}

func distState(c *driver.Compilation, m *distvm.Machine) state {
	s := state{arrays: map[string][]float64{}, scalars: map[string]float64{}}
	for a, info := range c.AIR.Arrays {
		if !info.Contracted {
			s.arrays[a] = m.Gather(a)
		}
	}
	for name := range c.AIR.Scalars {
		if v, ok := m.Scalar(name); ok {
			s.scalars[name] = v
		}
	}
	return s
}

func (w *executeWL) round(rec *recorder) {
	ctx := context.Background()
	var vmMS, distMS, nativeMS, footMB, wallMS, computeMS float64
	for _, i := range rec.rng.Perm(len(w.benches)) {
		eb := w.benches[i]

		rec.settle()
		op := rec.tr.newOp()
		var out bytes.Buffer
		sp := rec.tr.start("vm."+eb.name, 0, op)
		t0 := time.Now()
		m, _, err := vm.Run(eb.seq.LIR, vm.Options{Out: &out, Bounds: eb.seq.Bounds})
		d := time.Since(t0)
		rec.tr.end(sp, "")
		if err == nil && out.String() != eb.want {
			err = fmt.Errorf("vm %s: output differs from the baseline compilation's", eb.name)
		}
		if err == nil {
			footMB += float64(m.MemoryFootprint()) / (1 << 20)
		}
		rec.op("vm", d, err)
		vmMS += ms(d)

		rec.settle()
		op = rec.tr.newOp()
		sp = rec.tr.start("distvm."+eb.name, 0, op)
		t0 = time.Now()
		dm, err := distvm.Run(eb.dist.LIR, distvm.Options{Procs: 2})
		d = time.Since(t0)
		rec.tr.end(sp, "")
		if err == nil {
			if derr := eb.distWant.diff(distState(eb.dist, dm)); derr != nil {
				err = fmt.Errorf("distvm %s: %w", eb.name, derr)
			}
		}
		rec.op("distvm", d, err)
		distMS += ms(d)

		rec.settle()
		op = rec.tr.newOp()
		out.Reset()
		sp = rec.tr.start("backend."+eb.name, 0, op)
		t0 = time.Now()
		stats, err := eb.art.Run(ctx, &out)
		d = time.Since(t0)
		rec.tr.end(sp, "")
		if err == nil && out.String() != eb.want {
			err = fmt.Errorf("native %s: output differs from the baseline compilation's", eb.name)
		}
		if err == nil {
			wallMS += ms(stats.Wall)
			computeMS += ms(stats.Compute)
		}
		rec.op("native", d, err)
		nativeMS += ms(d)
	}
	rec.add("vm_suite_ms", vmMS)
	rec.add("distvm_suite_ms", distMS)
	rec.add("native_suite_ms", nativeMS)
	rec.add("vm.footprint_mb", footMB)
	rec.add("backend.run_wall_ms", wallMS)
	rec.add("backend.run_compute_ms", computeMS)

	rec.settle()
	before := w.lz.e.CacheStats()
	hist, times, err := w.lz.steps(rec.tr)
	if err != nil {
		rec.op("lazy", 0, fmt.Errorf("lazy: %w", err))
	}
	for i, d := range times {
		rec.op("lazy", d, checkResidual(i, hist, w.lzWant))
	}
	d := w.lz.e.CacheStats().Sub(before)
	rec.add("lazy.cache_hits", float64(d.Hits))
	rec.add("lazy.recompiles", float64(d.Misses))
}

// checkResidual compares the residual after step i bit for bit with
// the baseline engine's.
func checkResidual(i int, got, want []float64) error {
	if i >= len(want) || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
		return fmt.Errorf("lazy: residual[%d] = %v differs from the baseline engine's", i, got[i])
	}
	return nil
}

func (w *executeWL) named(rec *recorder) map[string]sample {
	return map[string]sample{
		"vm_suite_ms":     rec.med("vm_suite_ms"),
		"distvm_suite_ms": rec.med("distvm_suite_ms"),
		"native_suite_ms": rec.med("native_suite_ms"),
		"lazy_eval_ms":    rec.med("lazy"),
	}
}

// layers reports per-benchmark engine times (medians over the traced
// rounds), the exact VM footprint of one round, distvm's slowdown over
// the VM on the same p=2 LIR, native run and build times, and the lazy
// engine's cache behaviour per round.
func (w *executeWL) layers(rounds [][]span, rec *recorder) map[string]float64 {
	per := map[string][]float64{}
	for _, spans := range rounds {
		for _, s := range spans {
			per[s.Name] = append(per[s.Name], ms(s.End-s.Start))
		}
	}
	out := map[string]float64{}
	var dist, base float64
	for _, eb := range w.benches {
		for _, eng := range []string{"vm.", "distvm.", "backend."} {
			out[eng+eb.name+"_ms"] = median(per[eng+eb.name])
		}
		dist += median(per["distvm."+eb.name])
		base += ms(eb.distBase)
	}
	out["distvm.slowdown_vs_vm"] = dist / base
	for _, k := range []string{"vm.footprint_mb", "backend.run_wall_ms", "backend.run_compute_ms"} {
		out[k] = median(rec.series[k])
	}
	out["backend.build_ms"] = w.buildMS
	out["lazy.eval_ms"] = median(per["lazy.eval"])
	out["lazy.cache_hits"] = median(rec.series["lazy.cache_hits"])
	out["lazy.recompiles"] = median(rec.series["lazy.recompiles"])
	return out
}

// lazyJacobi is the damped double-buffered Jacobi solver of the lazy
// runtime study, issued through the lazy engine on the VM backend.
type lazyJacobi struct {
	e        *lazy.Engine
	cur, nxt *lazy.Handle
	res      *lazy.ScalarHandle
	init     []float64
}

func newLazyJacobi(lvl core.Level, init []float64) (*lazyJacobi, error) {
	e := lazy.NewEngine(lazy.Options{Level: lvl, Backend: driver.BackendVM})
	full := lazy.R(1, lazyN, 1, lazyN)
	j := &lazyJacobi{e: e, cur: e.Array("cur", full), nxt: e.Array("nxt", full), res: e.Scalar("res", 0), init: init}
	return j, e.Err()
}

// steps resets both buffers to the initial field, then runs lazySteps
// sweeps with one Eval each and returns the residual after each and
// each Eval's time, spanned in tr.
func (j *lazyJacobi) steps(tr *tracer) ([]float64, []time.Duration, error) {
	if err := j.cur.SetValues(j.init); err != nil {
		return nil, nil, err
	}
	if err := j.nxt.SetValues(j.init); err != nil {
		return nil, nil, err
	}
	inner := lazy.R(2, lazyN-1, 2, lazyN-1)
	cur, nxt := j.cur, j.nxt
	hist := make([]float64, 0, lazySteps)
	times := make([]time.Duration, 0, lazySteps)
	for i := 0; i < lazySteps; i++ {
		avg := j.e.Temp("avg", cur.Region())
		avg.Assign(inner, lazy.Mul(lazy.Const(0.25),
			lazy.Add(lazy.Add(cur.At(-1, 0), cur.At(1, 0)),
				lazy.Add(cur.At(0, -1), cur.At(0, 1)))))
		nxt.Assign(inner, lazy.Add(cur, lazy.Mul(lazy.Const(0.8), lazy.Sub(avg, cur))))
		j.res.MaxOf(inner, lazy.Abs(lazy.Sub(nxt, cur)))
		cur, nxt = nxt, cur

		sp := tr.start("lazy.eval", 0, tr.newOp())
		t0 := time.Now()
		err := j.e.Eval()
		d := time.Since(t0)
		tr.end(sp, "")
		if err != nil {
			return hist, times, err
		}
		r, err := j.res.Value()
		if err != nil {
			return hist, times, err
		}
		hist = append(hist, r)
		times = append(times, d)
	}
	return hist, times, nil
}
