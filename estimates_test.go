package perm_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"perm"
	"perm/internal/tpch"
)

// estimateRe matches the planner-estimate annotation EXPLAIN ANALYZE
// attaches to operators (est=%.0f rendering — no exponent).
var estimateRe = regexp.MustCompile(`est=([0-9]+)`)

// vectorizedOp reports whether an EXPLAIN operator label names a
// vectorized operator (including the batch→row adapter and the exchange,
// whose worker subtrees are rendered beneath it).
func vectorizedOp(op string) bool {
	switch {
	case strings.HasPrefix(op, "Vec"):
		return true
	case op == "BatchToRow" || op == "Exchange":
		return true
	}
	return false
}

// assertVecEstimates runs a query under EXPLAIN ANALYZE and requires
// every vectorized operator in the report — including the worker replica
// subtrees of exchanges — to carry a nonzero cardinality
// estimate.
func assertVecEstimates(t *testing.T, db *perm.Database, query string) {
	t.Helper()
	report, err := db.ExplainAnalyzeSQL(query)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE %s: %v", query, err)
	}
	checked := 0
	for _, line := range strings.Split(report, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		op, _, _ := strings.Cut(trimmed, " ")
		if !vectorizedOp(op) {
			continue
		}
		m := estimateRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("vectorized operator carries no estimate: %q in\n%s\nfor %s", trimmed, report, query)
		}
		if v, _ := strconv.Atoi(m[1]); v <= 0 {
			t.Fatalf("vectorized operator has zero estimate: %q in\n%s\nfor %s", trimmed, report, query)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("no vectorized operators found in report for %s:\n%s", query, report)
	}
}

// TestEstimatesFig10Corpus is the cardinality-feedback acceptance gate:
// on the Fig. 10 TPC-H queries Q1/Q3/Q10/Q15 — normal and with
// provenance, serial and parallel, with and without a 4 MiB memory
// budget — every vectorized operator in the EXPLAIN ANALYZE output
// carries a nonzero planner estimate.
func TestEstimatesFig10Corpus(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H estimate corpus skipped with -short")
	}
	const sf = 0.002
	configs := []struct {
		name string
		opts perm.Options
	}{
		{"serial", perm.Options{MemoryLimit: -1}},
		{"parallel", perm.Options{MemoryLimit: -1, Parallelism: 2}},
		{"serial-4MiB", perm.Options{MemoryLimit: 4 << 20}},
		{"parallel-4MiB", perm.Options{MemoryLimit: 4 << 20, Parallelism: 2}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := cfg.opts
			if opts.MemoryLimit > 0 {
				opts.SpillDir = t.TempDir()
			}
			db := perm.NewDatabaseWithOptions(opts)
			tpch.MustLoad(db, sf, 42)
			rng := tpch.NewRand(7)
			for _, n := range []int{1, 3, 10, 15} {
				q := tpch.MustQGen(n, rng)
				for _, s := range q.Setup {
					db.MustExec(s)
				}
				assertVecEstimates(t, db, q.Text)
				assertVecEstimates(t, db, q.Provenance().Text)
				for _, s := range q.Teardown {
					db.MustExec(s)
				}
			}
		})
	}
}

// TestEstimatesFeedStore pins the feedback loop end to end: an analyzed
// query lands in perm_stat_estimates with its worst q-error, queryable
// through ordinary SQL (and therefore composable with ORDER BY — the
// "find my worst misestimate" query from the README).
func TestEstimatesFeedStore(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec("CREATE TABLE r (a INT, b INT)")
	db.MustExec("INSERT INTO r VALUES (1,2),(1,4),(2,6),(3,8)")
	if _, _, err := db.QueryAnalyzed("SELECT a, COUNT(*) FROM r WHERE b > 0 GROUP BY a"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT fingerprint, query, max_qerr, worst_op FROM perm_stat_estimates ORDER BY max_qerr DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 estimate record, got %d", len(res.Rows))
	}
	row := res.Rows[0]
	if got := row[1].String(); !strings.Contains(got, "select a, count(*) from r") {
		t.Fatalf("unexpected normalized query %q", got)
	}
	qerr, err := strconv.ParseFloat(row[2].String(), 64)
	if err != nil || qerr < 1 {
		t.Fatalf("max_qerr %q not a q-error >= 1", row[2].String())
	}
	if row[3].String() == "" {
		t.Fatal("worst_op is empty")
	}
}

// TestEstimatesWithoutCallsNotStatements: a session's EXPLAIN ANALYZE
// records estimates and a plan under the bare statement's fingerprint.
// Until that statement itself runs, its record has no calls and stays
// out of perm_stat_statements; its first plain run then joins the two.
func TestEstimatesWithoutCallsNotStatements(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec("CREATE TABLE r (a INT, b INT)")
	db.MustExec("INSERT INTO r VALUES (1,2),(1,4),(2,6),(3,8)")
	const q = "SELECT a FROM r WHERE b > 3"
	db.MustExec("EXPLAIN ANALYZE " + q)
	est := db.MustQuery("SELECT fingerprint FROM perm_stat_estimates")
	if len(est.Rows) != 1 {
		t.Fatalf("perm_stat_estimates rows = %d, want 1", len(est.Rows))
	}
	fp := est.Rows[0][0].String()
	joined := "SELECT s.calls FROM perm_stat_statements s, perm_stat_estimates e WHERE s.fingerprint = e.fingerprint"
	if res := db.MustQuery(joined); len(res.Rows) != 0 {
		t.Fatalf("the bare statement %s shows in perm_stat_statements before it ran: %v", fp, res.Rows)
	}
	db.MustQuery(q)
	if res := db.MustQuery(joined); len(res.Rows) != 1 || res.Rows[0][0].String() != "1" {
		t.Fatalf("after one plain run, joined rows = %v, want one with calls 1", res.Rows)
	}
}
