package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host fingerprints the machine and code a run measured.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	return host{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Commit:     gitCommit("."),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD by reading .git directly (the benchmark may
// run in a checkout that is not a repository: then "unknown").
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// metric is one reported value with its definition and the number of
// samples behind it.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// runResult is one invocation's record in the ledger.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Seconds   float64  `json:"seconds"`
	Host      host     `json:"host"`
	Rounds    int      `json:"rounds"`
	Discarded int      `json:"rounds_dropped_for_steal"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
}

// add records a metric; a value without samples to make it from (every
// operation failed) is recorded as 0 with a note, so the run still
// reports.
func (r *runResult) add(d metricDef, s sample) {
	if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
		s.value, s.note = 0, "no samples"
	}
	r.Metrics = append(r.Metrics, metric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
		Value: s.value, Samples: s.n, Note: s.note})
}

func (r *runResult) value(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// ledger is the result file: the latest run of each workload and
// trace mode.
type ledger struct {
	Runs []runResult `json:"runs"`
}

func readLedger(path string) (ledger, error) {
	var l ledger
	buf, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(buf, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// appendLedger records res in the ledger at path, replacing an earlier
// run of the same workload and trace mode.
func appendLedger(path string, res runResult) error {
	l, err := readLedger(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	kept := l.Runs[:0]
	for _, r := range l.Runs {
		if r.Workload != res.Workload || r.Trace != res.Trace {
			kept = append(kept, r)
		}
	}
	l.Runs = append(kept, res)
	buf, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// compareLedgers prints, per workload and metric present in both
// ledgers, the new value's change relative to the base, flagging a
// change in the worse direction larger than the base's bound. It
// returns the number of flagged metrics.
func compareLedgers(w io.Writer, basePath, newPath string) (int, error) {
	base, err := readLedger(basePath)
	if err != nil {
		return 0, err
	}
	cur, err := readLedger(newPath)
	if err != nil {
		return 0, err
	}
	flagged := 0
	for _, b := range base.Runs {
		for _, c := range cur.Runs {
			if b.Workload != c.Workload || b.Trace != c.Trace {
				continue
			}
			fmt.Fprintf(w, "%s trace=%t (base seed %d, %s; new seed %d, %s)\n",
				b.Workload, b.Trace, b.Seed, b.Host.Commit, c.Seed, c.Host.Commit)
			for _, bm := range b.Metrics {
				nv := c.value(bm.Name)
				if math.IsNaN(nv) {
					continue
				}
				delta, worse := change(bm, nv)
				mark := ""
				if !b.Trace && worse > bm.Bound {
					mark = "  REGRESSION"
					flagged++
				}
				fmt.Fprintf(w, "  %-34s %14.4f -> %14.4f %-6s %+8.2f%%%s\n",
					bm.Name, bm.Value, nv, bm.Unit, 100*delta, mark)
			}
		}
	}
	return flagged, nil
}

// change returns the relative change from the base value to v and how
// much worse that is as a share (negative when better). A zero base
// makes any worsening infinite.
func change(base metric, v float64) (delta, worse float64) {
	if base.Value == 0 {
		switch {
		case v == 0:
			return 0, 0
		case (v > 0) == (base.Better == "lower"):
			return math.Inf(1), math.Inf(1)
		default:
			return math.Inf(-1), math.Inf(-1)
		}
	}
	delta = (v - base.Value) / math.Abs(base.Value)
	if base.Better == "higher" {
		return delta, -delta
	}
	return delta, delta
}
