package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile is the layout of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, untraced and traced, at SF 0.001 (or its
// own scale factor where that is smaller) for 300 ms, and holds what they
// emit against BENCHMARK.json: the same workload and metric names, a unit
// on every metric, no failed statement. wire_mixed starts, polls and drains a real permd child; a
// child that does not exit or leaves spill files behind fails its run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a permd child and runs four workloads")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the driver %q (or their reasons differ)", i, file.Workloads[i].Name, w.name)
		}
	}
	sameDefs(t, "end_to_end", file.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", file.PerLayer, perLayer)

	for _, w := range workloads {
		w.sf = math.Min(w.sf, 0.001)
		cfg := config{seed: 7, seconds: 0.3, root: "..",
			buildDir: t.TempDir(), tmpDir: t.TempDir(), log: io.Discard}
		start := time.Now()
		untraced, err := runUntraced(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkRun(t, untraced, endToEnd)
		traced, spans, err := runTraced(w, cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkRun(t, traced, perLayer)
		if len(spans) == 0 {
			t.Errorf("%s: the traced pass recorded no spans", w.name)
		}
		t.Logf("%s took %v", w.name, time.Since(start))
		if left := leftovers(cfg.tmpDir); len(left) > 0 {
			t.Errorf("%s left spill files behind: %v", w.name, left)
		}
	}
}

func sameDefs(t *testing.T, list string, file, table []metricDef) {
	t.Helper()
	if len(file) != len(table) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, the driver %d", list, len(file), len(table))
	}
	for i := range table {
		if file[i] != table[i] {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the driver %+v", list, i, file[i], table[i])
		}
	}
}

func checkRun(t *testing.T, r *runResult, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("%s: correct=%v, %d of %d statements failed: %v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Failures)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: emitted %d metrics, want %d", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s was not emitted", r.Workload, d.Name)
		case m.Unit == "" || m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", r.Workload, d.Name, m.Unit, d.Unit)
		case !nameRE.MatchString(d.Name):
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		case !r.Traced && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", r.Workload, d.Name, m.Value)
		}
	}
}

// TestCompare holds -compare to its three refusals: a metric worse by more
// than its bound, more failed statements than the parent had, and runs
// whose settings differ.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64, failed int, seconds float64) string {
		m := make(metrics)
		m.put(endToEnd, "norm_p50_ms", latency, 9)
		rep := report{EndToEnd: endToEnd, Workloads: []*runResult{{Workload: workloads[0].name, Seconds: seconds,
			SF: workloads[0].sf, Clients: 1, Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: m}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 10, 0, 16)
	for _, c := range []struct {
		name      string
		change    string
		regressed bool
		refused   bool
	}{
		{"same", write("same.json", 10.5, 0, 16), false, false},
		{"slower", write("slower.json", 14, 0, 16), true, false},
		{"failing", write("failing.json", 10, 1, 16), true, false},
		{"longer", write("longer.json", 10, 0, 30), false, true},
	} {
		regressed, err := compareFiles([]string{base}, []string{c.change})
		if (err != nil) != c.refused || regressed != c.regressed {
			t.Errorf("%s: regressed=%v err=%v, want regressed=%v refused=%v", c.name, regressed, err, c.regressed, c.refused)
		}
	}
}
