// Command bench is the repository's one benchmark: four named workloads,
// end-to-end metrics measured with tracing off, and a traced pass that
// replays the same generated statements stage by stage through each
// module's public entry points for the per-layer metrics. README.md in
// this directory has the metric table and the reasoning.
//
//	bash bench/run.sh --workload tpch_embedded --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// environment is recorded beside the numbers it produced.
type environment struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	Time       string  `json:"time"`
}

func readEnvironment() environment {
	env := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339)}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &env.LoadAvg1) //nolint:errcheck — stays 0 when unreadable
	}
	return env
}

// report is the layout of result.json.
type report struct {
	Env       environment  `json:"env"`
	EndToEnd  []metricDef  `json:"end_to_end"` // names, units and bounds, so -compare needs no second file
	PerLayer  []metricDef  `json:"per_layer"`
	Workloads []*runResult `json:"runs"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printMetrics lists a pass's metrics by name, in table order.
func printMetrics(r *runResult, defs []metricDef) {
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("%-14s %-32s %14.4f %-6s%s\n", r.Workload, d.Name, m.Value, m.Unit, n)
	}
}

// contractLine is the last line of standard output of a single-workload
// invocation.
func contractLine(r *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}
	for name, m := range r.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) //nolint:errcheck — plain numbers and strings
	return string(b)
}

// findRoot locates the module root from the working directory: the
// checkout root itself, or bench/ inside it.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "permd", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from bench/: cmd/permd not found")
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "drives query parameters, literals and statement order; the data seed is fixed")
		seconds = flag.Float64("seconds", 16, "how long each pass measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced pass and its per-layer metrics (-workload all runs both)")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory (relative to the repository root) that receives result.json and trace.json")
		compare = flag.Bool("compare", false, "compare result files: -compare a.json[,a2.json...] b.json[,b2.json...]")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two arguments: parent result files and change result files, each comma-separated"))
		}
		regressed, err := compareFiles(strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, root: root,
		buildDir: filepath.Join(root, ".bench_build"), log: os.Stderr}
	cfg.tmpDir = filepath.Join(cfg.buildDir, "spill")
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		fatal(err)
	}

	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q; have %s", *name, strings.Join(workloadNames(), ", ")))
	}

	rep := report{Env: readEnvironment(), EndToEnd: endToEnd, PerLayer: perLayer}
	var spans []span
	ok := true
	for _, w := range todo {
		if *name == "all" || *trace == 0 {
			r, err := runUntraced(w, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			rep.Workloads = append(rep.Workloads, r)
			printMetrics(r, endToEnd)
		}
		if *name == "all" || *trace != 0 {
			r, sp, err := runTraced(w, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s (traced): %w", w.name, err))
			}
			gateAttribution(r)
			rep.Workloads = append(rep.Workloads, r)
			spans = append(spans, sp...)
			if r.Correct {
				printMetrics(r, perLayer)
			}
		}
	}
	for _, r := range rep.Workloads {
		for _, f := range r.Failures {
			fmt.Fprintf(os.Stderr, "FAILED %s: %s\n", r.Workload, f)
		}
		ok = ok && r.Correct
	}

	dir := *outDir
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(root, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), rep); err != nil {
		fatal(err)
	}
	if spans != nil {
		if err := writeJSON(filepath.Join(dir, "trace.json"), spans); err != nil {
			fatal(err)
		}
	}
	if len(rep.Workloads) == 1 {
		fmt.Println(contractLine(rep.Workloads[0]))
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
