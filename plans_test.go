// Golden-plan regression tests: the exact fusion partition and
// contraction set the ladder chooses for every benchmark at every
// level, sequentially and distributed, serialized as canonical plan
// specs under testdata/plans/. A change in the optimizer's decisions
// shows up as a readable JSON diff; refresh deliberately with
//
//	go test -run TestGoldenPlans -update
package repro

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/programs"
)

var updatePlans = flag.Bool("update", false, "rewrite the golden plan specs in testdata/plans")

// planMode is one compilation setting the goldens cover: sequential at
// every level, or distributed with communication at the fusion-heavy
// levels, where the inserted communication statements (and, under
// FavorComm, the segment labels) constrain fusion.
type planMode struct {
	suffix string // file-name infix after the benchmark name
	comm   *comm.Options
	levels []core.Level
}

func planModes() []planMode {
	dist := []core.Level{core.C2F3, core.C2F4, core.C2F4S}
	p2, p4 := comm.DefaultOptions(2), comm.DefaultOptions(4)
	p2fc := comm.DefaultOptions(2)
	p2fc.Strategy = comm.FavorComm
	return []planMode{
		{suffix: "", levels: core.AllLevels()},
		{suffix: "-p2", comm: &p2, levels: dist},
		{suffix: "-p4", comm: &p4, levels: dist},
		{suffix: "-p2-favorcomm", comm: &p2fc, levels: dist},
	}
}

func TestGoldenPlans(t *testing.T) {
	if *updatePlans {
		if err := os.MkdirAll(filepath.Join("testdata", "plans"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range programs.All() {
		for _, m := range planModes() {
			for _, lvl := range m.levels {
				checkGoldenPlan(t, b.Name+m.suffix, b.Source, lvl, m.comm)
			}
		}
	}
}

// checkGoldenPlan compiles src at lvl (with communication when co is
// non-nil), compares the extracted plan spec with its golden file, and
// round-trips the golden through ApplySpec under the same options.
func checkGoldenPlan(t *testing.T, stem, src string, lvl core.Level, co *comm.Options) {
	t.Helper()
	name := fmt.Sprintf("%s-%s.json", stem, lvl)
	path := filepath.Join("testdata", "plans", name)
	c, err := driver.Compile(src, driver.Options{Level: lvl, Comm: co})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	spec := core.Extract(c.Plan)
	got, err := spec.Marshal()
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	if *updatePlans {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (refresh with go test -run TestGoldenPlans -update)", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: plan changed; got:\n%s\nwant:\n%s\n(refresh deliberately with -update)",
			name, got, want)
	}

	// The golden file must round-trip: parse it back, re-apply it to a
	// fresh compilation with the same communication options, and land
	// on the same content hash.
	reparsed, err := core.ParseSpec(want)
	if err != nil {
		t.Fatalf("%s: golden file does not parse: %v", name, err)
	}
	if reparsed.Hash() != spec.Hash() {
		t.Errorf("%s: hash changed across serialization: %s vs %s",
			name, reparsed.Hash()[:12], spec.Hash()[:12])
	}
	c2, err := driver.Compile(src, driver.Options{Plan: reparsed, Comm: co, Check: true})
	if err != nil {
		t.Errorf("%s: golden plan rejected on re-application: %v", name, err)
		return
	}
	if got2, _ := core.Extract(c2.Plan).Marshal(); !bytes.Equal(got, got2) {
		t.Errorf("%s: plan not a fixed point of apply∘extract:\n%s\nvs\n%s", name, got, got2)
	}
}
