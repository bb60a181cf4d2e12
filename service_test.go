// Tests for the concurrent query service layer: the shared compiled-
// query cache (hit/miss/invalidation semantics and result transparency),
// prepared statements, and -race stress over one shared Database.
package perm_test

import (
	"fmt"
	"sync"
	"testing"

	"perm"
)

// cachePair builds two databases over the same script, one with the
// compiled-query cache enabled (the default) and one without.
func cachePair(t testing.TB, script string) (on, off *perm.Database) {
	t.Helper()
	on = perm.NewDatabase()
	off = perm.NewDatabaseWithOptions(perm.Options{DisableQueryCache: true})
	on.MustExec(script)
	off.MustExec(script)
	return on, off
}

// serviceProvCorpus adds provenance-computing shapes on top of the
// plain-SQL logic corpus for the cache transparency check.
var serviceProvCorpus = []string{
	`SELECT PROVENANCE n FROM nums WHERE n > 1`,
	`SELECT PROVENANCE a, b FROM pairs ORDER BY a, b`,
	`SELECT PROVENANCE r.a, s.c FROM r, s WHERE r.a = s.a`,
	`SELECT PROVENANCE a, count(*) FROM pairs GROUP BY a`,
	`SELECT PROVENANCE b FROM ryview`,
	`SELECT PROVENANCE n FROM nums WHERE n IN (SELECT a FROM pairs)`,
	`SELECT PROVENANCE a FROM pairs UNION SELECT n FROM nums WHERE n <= 2`,
	`SELECT PROVENANCE x FROM empty_t`,
}

// TestQueryCacheTransparency: every corpus query must produce byte-
// identical results with the cache enabled and disabled — both on the
// cold run (miss + store) and the warm run (served from cache).
func TestQueryCacheTransparency(t *testing.T) {
	on, off := cachePair(t, vecFixture)
	corpus := append(append([]string{}, logicCorpus...), serviceProvCorpus...)
	for _, q := range corpus {
		want, err := off.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for pass := 0; pass < 2; pass++ { // pass 0 misses, pass 1 hits
			got, err := on.Query(q)
			if err != nil {
				t.Fatalf("%s (pass %d): %v", q, pass, err)
			}
			if got.String() != want.String() {
				t.Errorf("%s (pass %d):\ncache on:\n%s\ncache off:\n%s", q, pass, got, want)
			}
		}
	}
	st := on.QueryCacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("transparency run exercised no cache traffic: %+v", st)
	}
	if off.QueryCacheStats().Hits != 0 {
		t.Fatalf("disabled cache served hits: %+v", off.QueryCacheStats())
	}
}

// TestQueryCacheInvalidation: DML and DDL must invalidate cached
// artifacts — a repeated query sees fresh data, and dropping/recreating
// a table never serves a plan compiled for the old schema.
func TestQueryCacheInvalidation(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE tt (x int); INSERT INTO tt VALUES (1), (2)`)

	const q = `SELECT count(*) FROM tt`
	res := db.MustQuery(q)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("count = %s", res.Rows[0][0])
	}
	// Warm the cache, then mutate.
	db.MustQuery(q)
	hitsBefore := db.QueryCacheStats().Hits
	if hitsBefore == 0 {
		t.Fatal("second query did not hit the cache")
	}
	db.MustExec(`INSERT INTO tt VALUES (3)`)
	if got := db.MustQuery(q).Rows[0][0].Int(); got != 3 {
		t.Fatalf("stale result after DML: count = %d", got)
	}
	if st := db.QueryCacheStats(); st.Invalidations == 0 {
		t.Fatalf("DML did not invalidate: %+v", st)
	}

	// Schema change under the same name: the cached tree for the old
	// schema must not survive.
	db.MustExec(`DROP TABLE tt; CREATE TABLE tt (x int, y text); INSERT INTO tt VALUES (7, 'seven')`)
	res = db.MustQuery(`SELECT count(*) FROM tt`)
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("count after recreate = %s", res.Rows[0][0])
	}
	res = db.MustQuery(`SELECT y FROM tt`)
	if res.Rows[0][0].String() != "seven" {
		t.Fatalf("new column not visible: %s", res.Rows[0][0])
	}
}

// TestPreparedStatement: the embedded Prepare/Run API recompiles across
// DDL and serves fresh data across DML.
func TestPreparedStatement(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE tt (x int); INSERT INTO tt VALUES (1), (2)`)
	p, err := db.Prepare(`SELECT PROVENANCE x FROM tt ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := p.Columns()
	if err != nil || len(cols) != 2 || cols[1] != "prov_tt_x" {
		t.Fatalf("Columns = %v, %v", cols, err)
	}
	res, err := p.Run()
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("run 1: %v %v", res, err)
	}
	db.MustExec(`INSERT INTO tt VALUES (3)`)
	res, err = p.Run()
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("run after DML: %v %v", res, err)
	}
	db.MustExec(`CREATE TABLE unrelated (z int)`)
	res, err = p.Run()
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("run after DDL: %v %v", res, err)
	}
	if _, err := db.Prepare(`CREATE TABLE nope (x int)`); err == nil {
		t.Fatal("preparing DDL must fail")
	}
}

// TestCursorReadsItsSnapshot: a cursor reads the data snapshot taken
// when it starts; an INSERT between two fetches does not move it, even
// though most of the table's batches are still unread.
func TestCursorReadsItsSnapshot(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE tt (x int); INSERT INTO tt VALUES (0), (1), (2), (3)`)
	for i := 0; i < 10; i++ { // 4 × 2^10 = 4096 rows
		db.MustExec(fmt.Sprintf(`INSERT INTO tt SELECT x + %d FROM tt`, 4<<i))
	}
	p, err := db.Prepare(`SELECT x FROM tt`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cols := cur.Columns(); len(cols) != 1 || cols[0] != "x" {
		t.Fatalf("Columns = %v", cols)
	}
	rows, err := cur.Fetch(2)
	if err != nil || len(rows) != 2 {
		t.Fatalf("first fetch = %d rows, %v", len(rows), err)
	}
	db.MustExec(`INSERT INTO tt SELECT x + 4096 FROM tt`)
	rest, err := cur.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, rest...)
	if len(rows) != 4096 {
		t.Fatalf("cursor returned %d rows, its snapshot has 4096", len(rows))
	}
	for i, row := range rows {
		if row[0].Int() != int64(i) {
			t.Fatalf("row %d = %v", i, row[0])
		}
	}
}

// TestIntrospectionRacesDDL: Tables, Views and TableRowCount must be
// safe against concurrent DDL (they read through the catalog lock).
func TestIntrospectionRacesDDL(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE base (x int); INSERT INTO base VALUES (1)`)
	db.MustExec(`CREATE VIEW basev AS SELECT x FROM base`)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 60; i++ {
			name := fmt.Sprintf("ddl_%d", i)
			db.MustExec(fmt.Sprintf(`CREATE TABLE %s (a int)`, name))
			db.MustExec(fmt.Sprintf(`CREATE VIEW %s_v AS SELECT a FROM %s`, name, name))
			db.MustExec(fmt.Sprintf(`DROP VIEW %s_v`, name))
			db.MustExec(fmt.Sprintf(`DROP TABLE %s`, name))
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, name := range db.Tables() {
					// Tables may vanish between listing and counting; an
					// error is fine, a race or wrong count is not.
					if n, err := db.TableRowCount(name); err == nil && name == "base" && n != 1 {
						t.Errorf("base count = %d", n)
						return
					}
				}
				db.Views()
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentMixedWorkload is the service-layer stress gate: many
// goroutines mixing cached reads, provenance queries, DML, DDL and
// prepared statements against one shared Database. Run under -race.
func TestConcurrentMixedWorkload(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE shop (name text, numempl int)`)
	db.MustExec(`INSERT INTO shop VALUES ('Merdies', 3), ('Edeka', 7), ('Spar', 1)`)
	db.MustExec(`CREATE TABLE sales (sname text, itemid int)`)
	db.MustExec(`INSERT INTO sales VALUES ('Merdies', 1), ('Edeka', 2), ('Merdies', 3)`)

	iters := 40
	if testing.Short() {
		iters = 12
	}
	const workers = 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scratch := fmt.Sprintf("scratch_%d", g)
			if _, err := db.Exec(fmt.Sprintf(`CREATE TABLE %s (x int)`, scratch)); err != nil {
				t.Error(err)
				return
			}
			p, err := db.Prepare(`SELECT PROVENANCE name FROM shop WHERE numempl > 0`)
			if err != nil {
				t.Error(err)
				return
			}
			inserted := 0
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0: // cached read on the shared table
					res, err := db.Query(`SELECT count(*) FROM shop`)
					if err != nil {
						t.Error(err)
						return
					}
					if res.Rows[0][0].Int() != 3 {
						t.Errorf("shop count = %d", res.Rows[0][0].Int())
						return
					}
				case 1: // provenance join
					if _, err := db.Query(`SELECT PROVENANCE s.name FROM shop s, sales sa WHERE s.name = sa.sname`); err != nil {
						t.Error(err)
						return
					}
				case 2: // DML on the private table
					if _, err := db.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (%d)`, scratch, i)); err != nil {
						t.Error(err)
						return
					}
					inserted++
				case 3: // prepared execute (recompiles across version bumps)
					res, err := p.Run()
					if err != nil {
						t.Error(err)
						return
					}
					if len(res.Rows) != 3 {
						t.Errorf("prepared rows = %d", len(res.Rows))
						return
					}
				case 4: // DDL churn
					tmp := fmt.Sprintf("tmp_%d_%d", g, i)
					if _, err := db.Exec(fmt.Sprintf(`CREATE TABLE %s (a int)`, tmp)); err != nil {
						t.Error(err)
						return
					}
					if _, err := db.Exec(fmt.Sprintf(`DROP TABLE %s`, tmp)); err != nil {
						t.Error(err)
						return
					}
				}
			}
			res, err := db.Query(fmt.Sprintf(`SELECT count(*) FROM %s`, scratch))
			if err != nil {
				t.Error(err)
				return
			}
			if got := int(res.Rows[0][0].Int()); got != inserted {
				t.Errorf("goroutine %d: scratch rows = %d, want %d", g, got, inserted)
			}
		}(g)
	}
	wg.Wait()
}
