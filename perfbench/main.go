// Command perfbench is the repository's wall-clock benchmark. It runs
// one of three workloads (compile, execute, serve) through the public
// entry points of the compiler, the three execution engines, the lazy
// runtime and the zpld service, checks every output against a reference
// computed in set-up, and prints the end-to-end metrics. With -trace 1
// it instead runs every workload once more with spans around each layer
// call and prints the per-layer metrics and the tracing overhead.
//
//	perfbench -workload compile -seed 1 -seconds 25 -trace 0
//	perfbench -compare base.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Every run is also recorded,
// stamped with a host fingerprint, in the ledger named by -out.
// See README.md in this directory for the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times set-up runs per invocation; setup_s is
// their median.
const setupReps = 3

// workloadNames lists the workloads in the order a traced run visits them.
var workloadNames = []string{"compile", "execute", "serve"}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds the inputs and the references outputs are checked
	// against; the caller times it.
	setup() error
	// round runs one pass over the workload's fixed work, recording
	// every operation in rec.
	round(rec *recorder)
	// named computes the workload's own end-to-end metrics.
	named(rec *recorder) map[string]sample
	// layers computes per-layer metrics from the spans of each traced
	// round.
	layers(rounds [][]span, rec *recorder) map[string]float64
}

// sample is a metric value with the number of samples behind it.
type sample struct {
	value float64
	n     int
	note  string
}

func newWorkload(name string, seed int64, work string) (workload, error) {
	switch name {
	case "compile":
		return &compileWL{}, nil
	case "execute":
		return &executeWL{seed: seed, work: work}, nil
	case "serve":
		return &serveWL{seed: seed, work: work}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// recorder accumulates the operations of a workload's rounds.
type recorder struct {
	tr        *tracer
	rng       *rand.Rand // seeded; drives per-round orders
	ops       []float64  // latency of every successful operation, ms
	series    map[string][]float64
	attempted int
	failed    int
	failures  []string
	paused    time.Duration // spent in settle
}

func newRecorder(seed int64) *recorder {
	return &recorder{rng: rand.New(rand.NewSource(seed)), series: map[string][]float64{}}
}

// op records one operation: its latency under series (when it
// succeeded) or a failure. A wrong output is passed in as err.
func (r *recorder) op(series string, d time.Duration, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
		return
	}
	ms := float64(d) / float64(time.Millisecond)
	r.ops = append(r.ops, ms)
	if series != "" {
		r.add(series, ms)
	}
}

// settle collects garbage before an operation, so that no operation
// pays for the garbage of the ones before it, which would make its time
// depend on the seeded order. The pause is not part of any round time.
func (r *recorder) settle() {
	t0 := time.Now()
	runtime.GC()
	r.paused += time.Since(t0)
}

// add appends a sample to a named series.
func (r *recorder) add(series string, v float64) { r.series[series] = append(r.series[series], v) }

// pct is percentile over a named series, with its sample count and the
// tail-rule violation, if any, as a note.
func (r *recorder) pct(series string, q float64) sample {
	v, err := percentile(r.series[series], q)
	s := sample{value: v, n: len(r.series[series])}
	if err != nil {
		s.note = err.Error()
	}
	return s
}

// recMark is a recorder position rollback returns to.
type recMark struct {
	ops    int
	series map[string]int
}

func (r *recorder) mark() recMark {
	m := recMark{ops: len(r.ops), series: map[string]int{}}
	for k, v := range r.series {
		m.series[k] = len(v)
	}
	return m
}

// rollback drops the timing samples recorded since m; attempted and
// failed operations stay counted.
func (r *recorder) rollback(m recMark) {
	r.ops = r.ops[:m.ops]
	for k, v := range r.series {
		r.series[k] = v[:m.series[k]]
	}
}

func (r *recorder) med(series string) sample {
	return sample{value: median(r.series[series]), n: len(r.series[series])}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: compile, execute or serve")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 25, "how long the timed rounds run")
		trace   = flag.Int("trace", 0, "1 runs every workload traced and reports the per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench", "ledger.json"), "ledger the run is recorded in")
		compare = flag.Bool("compare", false, "compare two ledgers given as arguments: base new")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare wants two ledger files: base new")
		}
		flagged, err := compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if flagged > 0 {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if _, err := newWorkload(*name, *seed, ""); err != nil {
		fatalf("%v", err)
	}
	work, err := filepath.Abs(filepath.Join(filepath.Dir(*out), fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(work)

	res := runResult{Workload: *name, Seed: *seed, Trace: *trace == 1, Seconds: *seconds, Host: fingerprint()}
	if *trace == 1 {
		err = runTraced(&res, *seed, *seconds, work, filepath.Join(filepath.Dir(*out), "spans.json"))
	} else {
		err = runTimed(&res, *name, *seed, *seconds, work)
	}
	if err != nil {
		os.RemoveAll(work)
		fatalf("%s: %v", *name, err)
	}
	res.Correct = res.Failed == 0
	printResult(&res)
	if err := appendLedger(*out, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: ledger: %v\n", err)
	}
	last := map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed}
	m := map[string]any{}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := res.value(d.Name)
		m[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	last["metrics"] = m
	buf, err := json.Marshal(last)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(buf))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// setUp runs set-up reps times, keeping the last instance, and returns
// it with the median set-up time in seconds.
func setUp(name string, seed int64, work string, reps int) (workload, float64, error) {
	var times []float64
	var w workload
	for i := 0; i < reps; i++ {
		var err error
		w, err = newWorkload(name, seed, filepath.Join(work, fmt.Sprintf("%s-%d", name, i)))
		if err != nil {
			return nil, 0, err
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, median(times), nil
}

// maxSteal is the share of a round's CPU time the hypervisor may take
// (steal time in /proc/stat) before the round's timings are dropped and
// the round is run again. Rounds stop once they have run for 1 +
// maxDropped times the run's seconds, with the rounds kept so far; a
// stolen round is kept only when those hold too few operations. A traced
// run drops stolen pairs of rounds for at most maxDropped of its time.
// Operations and failures of a dropped round still count.
const (
	maxSteal   = 0.02
	maxDropped = 0.25
)

// measureRound runs one round and returns its wall time in ms (less the
// collections settle forced), the MB it allocated, and the share of the
// machine's CPU time stolen during it.
func measureRound(w workload, rec *recorder) (float64, float64, float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	s0 := stealTicks()
	p0 := rec.paused
	t0 := time.Now()
	w.round(rec)
	d := time.Since(t0) - (rec.paused - p0)
	stolen := float64(stealTicks()-s0) / stealHz / (d.Seconds() * float64(runtime.NumCPU()))
	runtime.ReadMemStats(&ms)
	return float64(d) / float64(time.Millisecond), float64(ms.TotalAlloc-a0) / (1 << 20), stolen
}

// stealHz is the unit of /proc/stat's counters (USER_HZ).
const stealHz = 100

// stealTicks reads the machine's total steal time from /proc/stat; 0
// where there is none to read.
func stealTicks() int64 {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// runTimed is the untraced run of one workload: set-up, then rounds
// until they have taken the time and done enough operations for a p90.
func runTimed(res *runResult, name string, seed int64, seconds float64, work string) error {
	w, setupS, err := setUp(name, seed, work, setupReps)
	if err != nil {
		return err
	}
	rec := newRecorder(seed)
	var roundMS, allocMB, rates []float64
	limit := time.Now().Add(time.Duration((1 + maxDropped) * seconds * float64(time.Second)))
	for {
		m := rec.mark()
		d, alloc, stolen := measureRound(w, rec)
		if stolen > maxSteal && (time.Now().Before(limit) || m.ops >= minTail*10) {
			rec.rollback(m)
			res.Discarded++
		} else {
			roundMS = append(roundMS, d)
			allocMB = append(allocMB, alloc)
			rates = append(rates, float64(len(rec.ops)-m.ops)/(d/1000))
		}
		if len(rec.ops) >= minTail*10 && (sum(roundMS)/1000 >= seconds || !time.Now().Before(limit)) {
			break
		}
	}
	res.Rounds = len(roundMS)
	res.Attempted, res.Failed, res.Failures = rec.attempted, rec.failed, rec.failures
	p50, _ := percentile(rec.ops, 0.5)
	p90, err90 := percentile(rec.ops, 0.9)
	note90 := ""
	if err90 != nil {
		note90 = err90.Error()
	}
	vals := map[string]sample{
		"setup_s":   {value: setupS, n: setupReps},
		"alloc_mb":  {value: median(allocMB), n: len(allocMB)},
		"op_ms_p50": {value: p50, n: len(rec.ops)},
		"op_ms_p90": {value: p90, n: len(rec.ops), note: note90},
		"ops_per_s": {value: median(rates), n: len(rates)},
	}
	for _, d := range endToEnd {
		res.add(d, vals[d.Name])
	}
	nv := w.named(rec)
	for _, d := range named[name] {
		res.add(d, nv[d.Name])
	}
	er := 0.0
	if rec.attempted > 0 {
		er = float64(rec.failed) / float64(rec.attempted)
	}
	res.add(errorRate, sample{value: er, n: rec.attempted})
	return nil
}

// runTraced visits every workload: after set-up it alternates an
// untraced and a traced round until half the time is up (at least two
// pairs), computes the per-layer metrics from the traced rounds' spans,
// and reports the tracing overhead as the median over the pairs of the
// traced round's time over the untraced one's, in percent.
func runTraced(res *runResult, seed int64, seconds float64, work, spansPath string) error {
	tr := newTracer()
	vals := map[string]float64{}
	traceRounds := math.MaxInt
	for _, name := range workloadNames {
		w, _, err := setUp(name, seed, filepath.Join(work, name), 1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rec := newRecorder(seed)
		var plain, ratios []float64
		var rounds [][]span
		start := time.Now()
		share := seconds / 2
		dropped := 0.0 // seconds
		for len(ratios) < 2 || time.Since(start).Seconds()+2*median(plain)/1000 <= share {
			m := rec.mark()
			var dp, dt, sp, st float64
			var spans []span
			untraced := func() {
				rec.tr = nil
				dp, _, sp = measureRound(w, rec)
			}
			traced := func() {
				rec.tr = tr
				tm := tr.mark()
				dt, _, st = measureRound(w, rec)
				spans = tr.since(tm)
			}
			// Alternate which round of a pair goes first, so that an
			// effect of the order does not read as tracing overhead.
			if len(ratios)%2 == 0 {
				untraced()
				traced()
			} else {
				traced()
				untraced()
			}
			if max(sp, st) > maxSteal && dropped+(dp+dt)/1000 <= maxDropped*share {
				rec.rollback(m)
				dropped += (dp + dt) / 1000
				res.Discarded++
				continue
			}
			plain = append(plain, dp)
			ratios = append(ratios, dt/dp)
			rounds = append(rounds, spans)
		}
		for k, v := range w.layers(rounds, rec) {
			vals[k] = v
		}
		vals["trace."+name+"_overhead_pct"] = 100 * (median(ratios) - 1)
		res.Attempted += rec.attempted
		res.Failed += rec.failed
		res.Failures = append(res.Failures, rec.failures...)
		res.Rounds += 2 * len(ratios)
		traceRounds = min(traceRounds, len(ratios))
	}
	vals["trace.spans"] = float64(tr.mark())
	for _, d := range perLayer {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		res.add(d, sample{value: v, n: traceRounds, note: layerNotes[d.Name]})
	}
	return tr.writeSpans(spansPath)
}

// printResult prints the human-readable report: one line per metric
// with its unit and sample count.
func printResult(res *runResult) {
	h := res.Host
	fmt.Printf("perfbench %s seed=%d trace=%t seconds=%g rounds=%d\n", res.Workload, res.Seed, res.Trace, res.Seconds, res.Rounds)
	fmt.Printf("host: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n", h.GoVersion, h.GOMAXPROCS, h.NProc, h.CPU, h.Commit)
	for _, m := range res.Metrics {
		line := fmt.Sprintf("  %-34s %14.4f %-6s n=%d", m.Name, m.Value, m.Unit, m.Samples)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("attempted=%d failed=%d rounds dropped for steal=%d\n", res.Attempted, res.Failed, res.Discarded)
	fs := append([]string(nil), res.Failures...)
	sort.Strings(fs)
	for _, f := range fs {
		fmt.Printf("  failure: %s\n", f)
	}
}
