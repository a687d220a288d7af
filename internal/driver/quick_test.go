package driver

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/core/reference"
	"repro/internal/vm"
)

// genProgram builds a random straight-line-plus-loop ZA program over a
// small pool of arrays: random element-wise statements with random
// neighbor offsets, interleaved reductions, all checksummed at the
// end. It is the input generator for the transformation-soundness
// property test.
func genProgram(r *rand.Rand) string {
	nArrays := 3 + r.Intn(4)
	var b strings.Builder
	b.WriteString("program quickgen;\nconfig n : integer = 8;\nregion R = [1..n, 1..n];\nregion I = [2..n-1, 2..n-1];\n")
	names := make([]string, nArrays)
	for i := range names {
		names[i] = fmt.Sprintf("A%d", i)
	}
	fmt.Fprintf(&b, "var %s : [R] double;\n", strings.Join(names, ", "))
	b.WriteString("var s, acc : double;\nproc main()\nbegin\n")
	for i, nm := range names {
		fmt.Fprintf(&b, "  [R] %s := index1 * 0.%d + index2 * 0.3;\n", nm, i+1)
	}
	b.WriteString("  acc := 0.0;\n")
	b.WriteString("  for it := 1 to 2 do\n")
	nStmts := 3 + r.Intn(6)
	regions := []string{"R", "I"}
	for i := 0; i < nStmts; i++ {
		target := names[r.Intn(nArrays)]
		reg := regions[r.Intn(2)]
		terms := make([]string, 1+r.Intn(3))
		for j := range terms {
			src := names[r.Intn(nArrays)]
			dx, dy := r.Intn(3)-1, r.Intn(3)-1
			if reg == "R" {
				// Keep offsets inside allocations trivially legal:
				// offsets allowed anywhere (halos are zero-filled),
				// but restrict to one-sided to vary dependences.
				dx, dy = r.Intn(2)-1, r.Intn(2)-1
			}
			if dx == 0 && dy == 0 {
				terms[j] = src
			} else {
				terms[j] = fmt.Sprintf("%s@(%d,%d)", src, dx, dy)
			}
		}
		fmt.Fprintf(&b, "    [%s] %s := (%s) * 0.4;\n", reg, target, strings.Join(terms, " + "))
		if r.Intn(4) == 0 {
			fmt.Fprintf(&b, "    s := +<< [I] %s;\n    acc := acc + s * 0.1;\n", names[r.Intn(nArrays)])
		}
	}
	b.WriteString("  end;\n")
	for _, nm := range names {
		fmt.Fprintf(&b, "  s := +<< [R] %s;\n  writeln(\"%s\", s);\n", nm, nm)
	}
	b.WriteString("  writeln(\"acc\", acc);\nend;\n")
	return b.String()
}

// outputsClose compares two writeln transcripts token-wise, allowing
// tiny relative differences on numeric tokens: fusing a reduction into
// a nest with a different loop structure reorders the accumulation,
// which is not bitwise-associative in floating point (the paper's
// compiler reassociates reductions the same way).
func outputsClose(a, b string) bool {
	ta, tb := strings.Fields(a), strings.Fields(b)
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i] == tb[i] {
			continue
		}
		fa, errA := strconv.ParseFloat(ta[i], 64)
		fb, errB := strconv.ParseFloat(tb[i], 64)
		if errA != nil || errB != nil {
			return false
		}
		diff := math.Abs(fa - fb)
		scale := math.Max(math.Abs(fa), math.Abs(fb))
		if diff > 1e-9*math.Max(scale, 1) {
			return false
		}
	}
	return true
}

func runLevel(src string, lvl core.Level) (string, error) {
	c, err := Compile(src, Options{Level: lvl})
	if err != nil {
		return "", err
	}
	var out bytes.Buffer
	if _, _, err := c.Run(vm.Options{Out: &out}); err != nil {
		return "", err
	}
	return out.String(), nil
}

// TestQuickTransformationSoundness: for random programs, every
// optimization level computes exactly the baseline's output.
func TestQuickTransformationSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genProgram(r)
		want, err := runLevel(src, core.Baseline)
		if err != nil {
			t.Logf("baseline failed (seed %d): %v\n%s", seed, err, src)
			return false
		}
		for _, lvl := range []core.Level{core.C1, core.C2, core.C2F3, core.C2F4} {
			got, err := runLevel(src, lvl)
			if err != nil {
				t.Logf("%v failed (seed %d): %v\n%s", lvl, seed, err, src)
				return false
			}
			if !outputsClose(got, want) {
				t.Logf("%v diverged (seed %d):\nwant %q\ngot  %q\n%s", lvl, seed, want, got, src)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickPartitionsValid: the fusion partitions produced for random
// programs always satisfy Definition 5 (re-checked independently by
// Partition.Validate).
func TestQuickPartitionsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genProgram(r)
		for _, lvl := range []core.Level{core.C1, core.C2, core.C2F3, core.C2F4} {
			c, err := Compile(src, Options{Level: lvl})
			if err != nil {
				t.Logf("compile failed (seed %d): %v", seed, err)
				return false
			}
			for _, bp := range c.Plan.Blocks {
				if bp.Part == nil {
					continue
				}
				if err := bp.Part.Validate(); err != nil {
					t.Logf("invalid partition (seed %d, %v): %v\n%s", seed, lvl, err, src)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickPairwiseMatchesReference: on random programs, sequential
// and at p=2 (under both communication strategies), greedy pairwise
// fusion and its operand-sharing variant produce the same partitions,
// vertex for vertex, as the reference that restarts its scan from the
// first pair after every merge and recomputes GROW for every pair.
// Each pass starts from the c2+f3 partition (its input on the ladder)
// and, sequentially, also from the trivial one (the longest merge
// chains; the reference is too slow for that on distributed graphs).
func TestQuickPairwiseMatchesReference(t *testing.T) {
	fc := defaultComm(2)
	fc.Strategy = comm.FavorComm
	p2 := defaultComm(2)
	passes := []struct {
		name      string
		fast, ref func(*core.Partition) *core.Partition
	}{
		{"f4", core.GreedyPairwise, reference.GreedyPairwise},
		{"f4s", core.GreedyPairwiseShared, reference.GreedyPairwiseShared},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genProgram(r)
		for _, co := range []*comm.Options{nil, &p2, &fc} {
			c, err := Compile(src, Options{Level: core.C2F3, Comm: co})
			if err != nil {
				t.Logf("compile failed (seed %d): %v", seed, err)
				return false
			}
			for bi, bp := range c.Plan.Blocks {
				starts := []*core.Partition{bp.Part}
				if co == nil {
					starts = append(starts, core.Trivial(bp.Graph))
				}
				for _, start := range starts {
					for _, pass := range passes {
						got, want := pass.fast(start.Clone()), pass.ref(start.Clone())
						for v := 0; v < bp.Graph.N(); v++ {
							if got.ClusterOf(v) != want.ClusterOf(v) {
								t.Logf("%s diverges (seed %d, comm %v, block %d) from %s:\n got %s\nwant %s\n%s",
									pass.name, seed, co != nil, bi, start, got, want, src)
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickDistributedSoundness: random programs with communication
// inserted still match the sequential baseline.
func TestQuickDistributedSoundness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genProgram(r)
		want, err := runLevel(src, core.Baseline)
		if err != nil {
			return false
		}
		for _, procs := range []int{4, 16} {
			co := defaultComm(procs)
			c, err := Compile(src, Options{Level: core.C2F3, Comm: &co})
			if err != nil {
				t.Logf("distributed compile failed (seed %d): %v", seed, err)
				return false
			}
			var out bytes.Buffer
			if _, _, err := c.Run(vm.Options{Out: &out}); err != nil {
				t.Logf("distributed run failed (seed %d): %v", seed, err)
				return false
			}
			if !outputsClose(out.String(), want) {
				t.Logf("distributed diverged (seed %d, p=%d)\n%s", seed, procs, src)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func defaultComm(procs int) comm.Options { return comm.DefaultOptions(procs) }

// checkFailure reports the verification error for src under opt, or
// "" when the pipeline compiles and verifies clean. Used as the
// failure predicate for both the fuzz pass and the shrinker.
func checkFailure(src string, opt Options) string {
	opt.Check = true
	if _, err := Compile(src, opt); err != nil {
		return err.Error()
	}
	return ""
}

// shrinkProgram greedily deletes statement lines from a failing random
// program while the failure (a non-empty string from failing) persists,
// so the logged reproducer is close to minimal.
func shrinkProgram(src string, failing func(string) string) string {
	for {
		lines := strings.Split(src, "\n")
		shrunk := false
		for i, ln := range lines {
			trimmed := strings.TrimSpace(ln)
			// Only statement lines are candidates; structure lines
			// (program/region/var/for/end) must survive.
			if !strings.Contains(trimmed, ":=") && !strings.HasPrefix(trimmed, "writeln") {
				continue
			}
			cand := strings.Join(append(append([]string{}, lines[:i]...), lines[i+1:]...), "\n")
			if failing(cand) != "" {
				src = cand
				shrunk = true
				break
			}
		}
		if !shrunk {
			return src
		}
	}
}

// TestQuickVerifierClean: every random program the generator can
// produce must verify clean under the full static verifier at every
// level, sequential and distributed. A failure is shrunk to a
// near-minimal reproducer before logging.
func TestQuickVerifierClean(t *testing.T) {
	sequential := []core.Level{core.Baseline, core.C1, core.C2, core.C2F3, core.C2F4}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genProgram(r)
		var opts []Options
		for _, lvl := range sequential {
			opts = append(opts, Options{Level: lvl})
		}
		co := defaultComm(4)
		opts = append(opts, Options{Level: core.C2F3, Comm: &co})
		for _, opt := range opts {
			if msg := checkFailure(src, opt); msg != "" {
				small := shrinkProgram(src, func(s string) string { return checkFailure(s, opt) })
				t.Logf("verifier failed (seed %d, level %v, dist %v): %s\nshrunk reproducer:\n%s",
					seed, opt.Level, opt.Comm != nil, msg, small)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
