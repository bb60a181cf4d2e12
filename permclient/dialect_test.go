package permclient

import (
	"regexp"
	"strings"
	"testing"

	"perm"
	"perm/internal/session"
	"perm/internal/types"
)

// timings matches what differs between two runs of one EXPLAIN ANALYZE.
var timings = regexp.MustCompile(`(time=|Execution time: )[^ )]+`)

// masked is res with the timings of its text values blanked.
func masked(res *perm.Result) *perm.Result {
	rows := make([][]types.Value, len(res.Rows))
	for i, row := range res.RawRows() {
		for _, v := range row {
			if v.K == types.KindString && !v.Null {
				v = types.NewString(timings.ReplaceAllString(v.Str(), "${1}*"))
			}
			rows[i] = append(rows[i], v)
		}
	}
	return perm.NewRawResult(res.Columns, res.ProvColumns, rows)
}

// TestDialectRemoteEqualsEmbedded sends every statement kind of the
// service dialect through the client and through session.Run on an
// embedded handle over the same data: rows, affected counts and whether
// the statement failed must agree, and so must the session state the
// statements leave behind (prepared names, options, tables).
func TestDialectRemoteEqualsEmbedded(t *testing.T) {
	_, c := serve(t, shopDB())
	local := shopDB()
	sess := session.New(local)
	defer sess.Close()

	for _, tc := range []struct {
		stmt  string
		fails bool
	}{
		{`SELECT name, numempl FROM shop ORDER BY name`, false},
		{`SELECT PROVENANCE name, numempl FROM shop WHERE numempl > 2 ORDER BY name`, false},
		{`EXPLAIN SELECT name FROM shop WHERE numempl > 2`, false},
		{`EXPLAIN REWRITE SELECT PROVENANCE name FROM shop`, false},
		{`EXPLAIN ANALYZE SELECT PROVENANCE name FROM shop WHERE numempl > 2 ORDER BY name`, false},
		{`SELECT nothing FROM nowhere`, true},
		{`PREPARE p AS SELECT PROVENANCE name FROM shop WHERE numempl > 2`, false},
		{`EXECUTE p`, false},
		{`DEALLOCATE p`, false},
		{`EXECUTE p`, true},
		{`SET disable_vectorized = on`, false},
		{`EXPLAIN SELECT name FROM shop`, false},
		{`SET parallelism = banana`, true},
		{`SET disable_vectorized = 0`, false},
		{`INSERT INTO shop VALUES ('Aldi', 9, NULL, 2.0, true)`, false},
		{`DELETE FROM shop WHERE numempl > 5`, false},
		{`CREATE TABLE t (x int)`, false},
		{`INSERT INTO t VALUES (1), (2)`, false},
		{`SELECT x INTO t2 FROM t`, false},
		{`DROP TABLE t`, false},
		{`SELECT * FROM t2`, false},
		{`CANCEL 'q-does-not-exist'`, true},
		{`SELECT * FROM shop ORDER BY name`, false},
	} {
		stmt := tc.stmt
		got, affected, rerr := c.Exec(stmt)
		out, lerr := sess.Run(stmt)
		if (rerr != nil) != tc.fails || (lerr != nil) != tc.fails {
			t.Fatalf("%s: remote error %v, embedded error %v, want failure %v", stmt, rerr, lerr, tc.fails)
		}
		if lerr != nil {
			continue
		}
		if affected != out.Affected || (got == nil) != (out.Result == nil) {
			t.Fatalf("%s: remote %d affected, rows %v; embedded %d affected, rows %v",
				stmt, affected, got != nil, out.Affected, out.Result != nil)
		}
		if got == nil {
			continue
		}
		norm := func(res *perm.Result) *perm.Result { return res }
		if strings.HasPrefix(stmt, "EXPLAIN ANALYZE") {
			norm = masked
		}
		want := norm(out.Result)
		same(t, "Exec "+stmt, norm(got), want)
		if !strings.Contains(stmt, " INTO ") {
			viaQuery, err := c.Query(stmt)
			if err != nil {
				t.Fatalf("Query %s: %v", stmt, err)
			}
			same(t, "Query "+stmt, norm(viaQuery), want)
		}
	}

	// The typed methods send the same dialect text.
	const q = `SELECT PROVENANCE name FROM shop WHERE numempl > 2 ORDER BY name`
	plan, err := c.Explain(q)
	if want, _ := local.ExplainSQL(q); err != nil || plan != want {
		t.Fatalf("Explain: %q, %v; embedded %q", plan, err, want)
	}
	report, err := c.ExplainAnalyze(q)
	want, _ := local.ExplainAnalyzeSQL(q)
	if err != nil || timings.ReplaceAllString(report, "${1}*") != timings.ReplaceAllString(want, "${1}*") {
		t.Fatalf("ExplainAnalyze: %q, %v; embedded %q", report, err, want)
	}
	if _, err := c.Query(`INSERT INTO shop VALUES ('Lidl', 1, NULL, NULL, NULL)`); err == nil ||
		err.Error() != "statement returns no result; use Exec" {
		t.Fatalf("Query of an INSERT: %v", err)
	}
	if err := c.Prepare("two words", q); err == nil {
		t.Fatal("Prepare accepted a name of two words")
	}
}
