package perm_test

import (
	"fmt"
	"strings"
	"testing"

	"perm"
	"perm/internal/tpch"
)

// This file property-tests the paper's correctness theorem (§III-E):
// for every query q, the projection of q+ on the original columns is
// set-equal to the result of q:
//
//	Π_T(q+) = Π_T(q)
//
// A random query generator produces queries over random small databases
// covering projections, selections, joins, aggregation, DISTINCT, set
// operations and uncorrelated sublinks; each query is run normally and
// with PROVENANCE and the results compared.

// randRows draws a table size of at least min rows; one table in six
// comes out empty, the input on which an aggregation without GROUP BY
// still owes its one row.
func randRows(r *tpch.Rand, min, spread int) int {
	if r.Intn(6) == 0 {
		return 0
	}
	return min + r.Intn(spread)
}

// randDB creates a fresh database with three small random tables.
func randDB(r *tpch.Rand) *perm.Database {
	db := perm.NewDatabase()
	db.MustExec(`
		CREATE TABLE t1 (a int, b int, c text);
		CREATE TABLE t2 (a int, d int);
		CREATE TABLE t3 (a int, e text);
	`)
	labels := []string{"'x'", "'y'", "'z'", "NULL"}
	var sb strings.Builder
	for i, n := 0, randRows(r, 4, 8); i < n; i++ {
		fmt.Fprintf(&sb, "INSERT INTO t1 VALUES (%d, %d, %s);", r.Intn(5), r.Intn(20), labels[r.Intn(len(labels))])
	}
	for i, n := 0, randRows(r, 3, 6); i < n; i++ {
		fmt.Fprintf(&sb, "INSERT INTO t2 VALUES (%d, %d);", r.Intn(5), r.Intn(20))
	}
	for i, n := 0, randRows(r, 2, 5); i < n; i++ {
		fmt.Fprintf(&sb, "INSERT INTO t3 VALUES (%d, %s);", r.Intn(5), labels[r.Intn(len(labels))])
	}
	db.MustExec(sb.String())
	return db
}

// randQuery generates a random query. depth limits nesting.
func randQuery(r *tpch.Rand, depth int) string {
	switch pick := r.Intn(10); {
	case pick < 5 || depth <= 0:
		return randSPJ(r, depth)
	case pick < 7:
		return randAgg(r, depth)
	case pick < 9:
		// set operation over union-compatible selections
		ops := []string{"UNION", "UNION ALL", "INTERSECT", "INTERSECT ALL", "EXCEPT", "EXCEPT ALL"}
		op := ops[r.Intn(len(ops))]
		return fmt.Sprintf("SELECT a FROM t1 WHERE a %s %d %s SELECT a FROM t2 WHERE d %s %d",
			randCmp(r), r.Intn(5), op, randCmp(r), r.Intn(20))
	default:
		return randSublink(r)
	}
}

func randCmp(r *tpch.Rand) string {
	return []string{"=", "<>", "<", "<=", ">", ">="}[r.Intn(6)]
}

func randSPJ(r *tpch.Rand, depth int) string {
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf("SELECT a, b FROM t1 WHERE b %s %d", randCmp(r), r.Intn(20))
	case 1:
		return fmt.Sprintf("SELECT t1.a, d FROM t1, t2 WHERE t1.a = t2.a AND d %s %d",
			randCmp(r), r.Intn(20))
	case 2:
		kind := []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"}[r.Intn(4)]
		return fmt.Sprintf("SELECT t1.b, t3.e FROM t1 %s t3 ON t1.a = t3.a", kind)
	default:
		if depth > 0 {
			inner := fmt.Sprintf(
				"SELECT a, count(*) AS cnt, sum(b) AS sm FROM t1 GROUP BY a HAVING count(*) >= %d",
				1+r.Intn(2))
			return fmt.Sprintf("SELECT a, cnt FROM (%s) AS sub%d WHERE a >= %d",
				inner, r.Intn(100), r.Intn(3))
		}
		return "SELECT DISTINCT a, c FROM t1"
	}
}

func randAgg(r *tpch.Rand, depth int) string {
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf("SELECT a, count(*) AS cnt, sum(b) AS sm FROM t1 GROUP BY a HAVING count(*) >= %d", 1+r.Intn(2))
	case 1:
		return "SELECT c, min(b) AS mn, max(b) AS mx FROM t1 GROUP BY c"
	case 2:
		return fmt.Sprintf("SELECT count(*) AS n, sum(d) AS sm FROM t2 WHERE d %s %d", randCmp(r), r.Intn(20))
	default:
		if depth > 0 {
			return fmt.Sprintf("SELECT a, sum(d) AS s FROM (%s) AS q%d GROUP BY a",
				"SELECT t2.a AS a, d FROM t2", r.Intn(100))
		}
		return "SELECT avg(b) AS av FROM t1"
	}
}

func randSublink(r *tpch.Rand) string {
	switch r.Intn(4) {
	case 0:
		return "SELECT a, b FROM t1 WHERE a IN (SELECT a FROM t2)"
	case 1:
		return "SELECT a FROM t1 WHERE a NOT IN (SELECT a FROM t3)"
	case 2:
		return fmt.Sprintf("SELECT b FROM t1 WHERE b > (SELECT avg(d) FROM t2) OR a = %d", r.Intn(5))
	default:
		return "SELECT a FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE d > 5)"
	}
}

// TestTheoremOnRandomQueries is the main property test: 300 random
// queries over 30 random databases.
func TestTheoremOnRandomQueries(t *testing.T) {
	r := tpch.NewRand(2024)
	queries := 300
	if testing.Short() {
		queries = 60
	}
	dbRotate := 10
	var db *perm.Database
	for i := 0; i < queries; i++ {
		if i%dbRotate == 0 {
			db = randDB(r)
		}
		q := randQuery(r, 2)
		norm, err := db.Query(q)
		if err != nil {
			t.Fatalf("query %d failed normally: %v\n%s", i, err, q)
		}
		prov, err := db.Query(injectProv(q))
		if err != nil {
			t.Fatalf("query %d failed with provenance: %v\n%s", i, err, q)
		}
		checkTheorem(t, db, q, norm, prov)
		if t.Failed() {
			t.Fatalf("theorem violated by query %d:\n%s", i, q)
		}
	}
}

// checkTheorem verifies Π_T(q+) = Π_T(q) (set equality over the original
// columns).
func checkTheorem(t *testing.T, db *perm.Database, q string, norm, prov *perm.Result) {
	t.Helper()
	width := len(norm.Columns)
	if len(prov.Columns) < width {
		t.Errorf("provenance result narrower than original: %v vs %v", prov.Columns, norm.Columns)
		return
	}
	if prov.NumProvColumns() == 0 {
		t.Errorf("no provenance columns for %s", q)
		return
	}
	normSet := map[string]bool{}
	for _, row := range norm.Rows {
		normSet[fingerprint(row, width)] = true
	}
	provSet := map[string]bool{}
	for _, row := range prov.Rows {
		provSet[fingerprint(row, width)] = true
	}
	for fp := range normSet {
		if !provSet[fp] {
			t.Errorf("missing original tuple %q", fp)
		}
	}
	for fp := range provSet {
		if !normSet[fp] {
			t.Errorf("spurious tuple %q", fp)
		}
	}
	checkOrder(t, db, q, width, prov)
}

// checkOrder verifies that q+ keeps q's ORDER BY: q's sort keys, taken for
// each q+ row from the q row it carries (its first width columns), never
// decrease. A key's rank is read from q run with its keys appended as
// columns; a q row whose values recur under another key (one on a column
// q does not output) has no rank and is skipped.
func checkOrder(t *testing.T, db *perm.Database, q string, width int, prov *perm.Result) {
	t.Helper()
	text, pos, err := db.SortKeysSQL(q)
	if err != nil {
		t.Errorf("%s: %v", q, err)
		return
	} else if pos == nil {
		return
	}
	keyed, err := db.Query(text)
	if err != nil {
		t.Errorf("%s with its sort keys: %v\n%s", q, err, text)
		return
	}
	rank, last, r := map[string]int{}, "", -1
	for _, row := range keyed.Rows {
		var key string
		for _, p := range pos {
			key += row[p].String() + "|"
		}
		if key != last {
			r, last = r+1, key
		}
		fp := fingerprint(row, width)
		if old, seen := rank[fp]; !seen {
			rank[fp] = r
		} else if old != r {
			rank[fp] = -1
		}
	}
	prev := -1
	for i, row := range prov.Rows {
		if r, ok := rank[fingerprint(row, width)]; ok && r >= 0 {
			if r < prev {
				t.Errorf("%s: q+ row %d breaks q's ORDER BY (key rank %d after %d)", q, i, r, prev)
				return
			}
			prev = r
		}
	}
}

// TestTheoremOnPaperWorkloads re-checks the theorem on the deterministic
// example database for a fixed battery of tricky shapes.
func TestTheoremOnPaperWorkloads(t *testing.T) {
	db := exampleDB(t)
	queries := []string{
		"SELECT name FROM shop",
		"SELECT DISTINCT sname FROM sales",
		"SELECT name, numempl FROM shop WHERE numempl > 5",
		"SELECT name, sum(price) FROM shop, sales, items WHERE name = sname AND itemid = id GROUP BY name",
		"SELECT sname, count(*) FROM sales GROUP BY sname HAVING count(*) > 2",
		"SELECT name FROM shop UNION SELECT sname FROM sales",
		"SELECT name FROM shop UNION ALL SELECT sname FROM sales",
		"SELECT sname FROM sales INTERSECT SELECT name FROM shop",
		"SELECT sname FROM sales EXCEPT SELECT name FROM shop WHERE numempl > 5",
		"SELECT sname FROM sales EXCEPT ALL SELECT name FROM shop",
		"SELECT name FROM shop WHERE numempl < 10 OR name IN (SELECT sname FROM sales)",
		"SELECT name FROM shop WHERE name IN (SELECT sname FROM sales)",
		"SELECT id FROM items WHERE price >= (SELECT avg(price) FROM items)",
		"SELECT s.name, t.total FROM shop AS s JOIN (SELECT sname, count(*) AS total FROM sales GROUP BY sname) AS t ON s.name = t.sname",
		"SELECT itemid, count(*) FROM sales GROUP BY itemid ORDER BY itemid",
		"SELECT itemid, count(*) FROM sales GROUP BY itemid ORDER BY itemid * -1",
		"SELECT sname FROM sales GROUP BY sname ORDER BY count(*) DESC, sname",
		"SELECT name FROM shop UNION SELECT sname FROM sales ORDER BY 1 DESC",
		"SELECT name, numempl FROM shop ORDER BY numempl * 2 DESC LIMIT 2",
		"SELECT name FROM shop LEFT JOIN items ON numempl = id",
		"SELECT sum(price) FROM items WHERE id > 100",
	}
	for i, q := range queries {
		norm, err := db.Query(q)
		if err != nil {
			t.Fatalf("query %d failed: %v\n%s", i, err, q)
		}
		prov, err := db.Query(injectProv(q))
		if err != nil {
			t.Fatalf("query %d failed with provenance: %v\n%s", i, err, q)
		}
		checkTheorem(t, db, q, norm, prov)
		if t.Failed() {
			t.Fatalf("theorem violated by:\n%s", q)
		}
	}
}
