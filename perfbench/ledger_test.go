package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFlagsOnlyWorseBeyondBound(t *testing.T) {
	dir := t.TempDir()
	base, cur := filepath.Join(dir, "base.json"), filepath.Join(dir, "new.json")
	lat := metricDef{"lat_ms", "ms", "lower", 0.1}
	rate := metricDef{"rate_per_s", "1/s", "higher", 0.1}
	run := func(path string, latV, rateV, errV float64) {
		r := runResult{Workload: "compile", Host: fingerprint()}
		r.add(lat, sample{value: latV})
		r.add(rate, sample{value: rateV})
		r.add(errorRate, sample{value: errV})
		if err := appendLedger(path, r); err != nil {
			t.Fatal(err)
		}
	}
	run(base, 10, 100, 0)
	run(cur, 10.5, 80, 0.01) // latency within bound; rate and errors worse
	var out bytes.Buffer
	flagged, err := compareLedgers(&out, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if flagged != 2 {
		t.Errorf("%d metrics flagged, want 2:\n%s", flagged, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "lat_ms") && strings.Contains(line, "REGRESSION") {
			t.Errorf("a change within the bound was flagged: %s", line)
		}
	}

	// Re-recording a workload replaces its run instead of adding one.
	run(cur, 9, 120, 0)
	l, err := readLedger(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Runs) != 1 {
		t.Errorf("ledger holds %d runs of one workload, want 1", len(l.Runs))
	}
	if flagged, _ := compareLedgers(&out, base, cur); flagged != 0 {
		t.Errorf("an improvement was flagged %d times", flagged)
	}
}
