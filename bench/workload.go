package main

import (
	"fmt"
	"strings"

	"perm"
	"perm/internal/synth"
	"perm/internal/tpch"
)

// dataSeed is the TPC-H generator seed. It is fixed because `permd -tpch`
// hard-codes it; -seed drives only query parameters, literals and order.
const dataSeed = 42

// stmt is one generated statement. Statements come in adjacent pairs:
// index 2k is a query q, index 2k+1 the same query as SELECT PROVENANCE
// (the paper's q+), so every measurement has its own base beside it.
type stmt struct {
	class string // query shape, e.g. "Q3" or "setop5"
	set   int    // which parameter draw of the run it belongs to
	prov  bool
	sql   string
}

func (s stmt) label() string {
	form := "norm"
	if s.prov {
		form = "prov"
	}
	return fmt.Sprintf("%s/%s#%d", s.class, form, s.set)
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// sf is the TPC-H scale factor of its data.
	sf float64
	// sets is how many parameter draws one run makes. Every statement is
	// timed by its own median and the medians are combined by geometric
	// mean, so more draws make a run's result depend less on its seed.
	sets int
	// opts are the engine options of the timed handle.
	opts perm.Options
	// wire runs the engine as a permd child driven over TCP.
	wire bool
	// gen draws one set; maxKey is the largest p_partkey of the data.
	gen func(r *tpch.Rand, maxKey int) []stmt
}

var workloads = []workload{
	{
		name: "tpch_embedded",
		why:  "Fig. 10 queries q and q+ on a warm plan cache, one in-process client: execution-bound (plan, vexec, storage, result boxing)",
		sf:   0.02,
		sets: 4,
		gen:  tpchSet(1, 3, 5, 6, 10, 12, 14),
	},
	{
		name: "synth_compile",
		why:  "Figs. 12-14 shapes with fresh literals on 40-row data, so every text misses the plan cache: compile-bound (sql, analyze, provrewrite, optimize, plan, qcache miss path)",
		sf:   0.0002,
		sets: 64, // far more than the 256 texts the plan cache holds: cycling through them never hits
		gen:  synthSet,
	},
	{
		name: "tpch_spill",
		why:  "Q1, Q3, Q10, Q12 as q and q+ under a 4 MiB session budget: mem, spill and the Grace-join, partial-aggregate and external-sort paths the unbudgeted workloads never reach",
		sf:   0.02,
		sets: 4,
		opts: perm.Options{MemoryLimit: 4 << 20},
		gen:  tpchSet(1, 3, 10, 12),
	},
	{
		name: "wire_mixed",
		why:  "a permd child driven by 2 permclient connections, 90% reads beside 5% inserts that invalidate every cached plan and 5% provenance counts: wire, server, session, permclient, qcache invalidation",
		sf:   0.01,
		sets: 6,
		wire: true,
		gen:  tpchSet(3, 6, 10, 12),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// statements draws the run's statements from the seed: w.sets draws,
// each a list of (q, q+) pairs.
func (w workload) statements(seed uint64, maxKey int) []stmt {
	r := tpch.NewRand(seed)
	var out []stmt
	for set := 0; set < w.sets; set++ {
		for _, s := range w.gen(r, maxKey) {
			s.set = set
			out = append(out, s)
		}
	}
	return out
}

func pair(class, text string) []stmt {
	return []stmt{
		{class: class, sql: text},
		{class: class, prov: true, sql: tpch.Query{Text: text}.Provenance().Text},
	}
}

// tpchSet draws one qgen instance of each listed TPC-H query. Q15 is
// left out everywhere: its view DDL would turn a warm plan cache cold.
func tpchSet(numbers ...int) func(*tpch.Rand, int) []stmt {
	return func(r *tpch.Rand, _ int) []stmt {
		var out []stmt
		for _, n := range numbers {
			out = append(out, pair(fmt.Sprintf("Q%d", n), tpch.MustQGen(n, r).Text)...)
		}
		return out
	}
}

// synthSet draws the paper's §V-B shapes: set-operation trees (Fig. 12),
// SPJ trees (Fig. 13) and aggregation chains (Fig. 14).
func synthSet(r *tpch.Rand, maxKey int) []stmt {
	var out []stmt
	for _, n := range []int{1, 5, 10} {
		out = append(out, pair(fmt.Sprintf("setop%d", n), synth.SetOpQuery(r, n, maxKey))...)
	}
	for _, n := range []int{2, 6} {
		out = append(out, pair(fmt.Sprintf("spj%d", n), synth.SPJQuery(r, n, maxKey))...)
	}
	for _, n := range []int{3, 10} {
		// The chain generator takes no PRNG. A drawn price bound that every
		// part passes makes the text distinct per draw and leaves the work
		// the same.
		q := synth.AggChainQuery(n, maxKey)
		bound := 1_000_000 + r.Intn(1<<30)
		q = strings.Replace(q, "FROM part GROUP BY", fmt.Sprintf("FROM part WHERE p_retailprice < %d GROUP BY", bound), 1)
		out = append(out, pair(fmt.Sprintf("agg%d", n), q)...)
	}
	return out
}
