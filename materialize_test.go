package perm_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"perm"
	"perm/internal/types"
)

// tiesTable builds n rows whose sort key k takes three values and NULL in
// long runs and short ones, so a k-way merge sees heavy ties within and
// across its inputs; id is the row's position, the only thing that tells
// tied rows apart.
func tiesTable(n int) func(*perm.Database) {
	return func(db *perm.Database) {
		db.MustExec(`CREATE TABLE ties (id int, k int, s text)`)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if i%512 == 0 {
				if sb.Len() > 0 {
					db.MustExec(sb.String())
					sb.Reset()
				}
				sb.WriteString(`INSERT INTO ties VALUES `)
			} else {
				sb.WriteString(", ")
			}
			k := fmt.Sprint((i / 700) % 3)
			if i%11 == 0 || (i/300)%5 == 4 {
				k = "NULL"
			}
			fmt.Fprintf(&sb, "(%d, %s, 'p%d')", i, k, i%17)
		}
		db.MustExec(sb.String())
	}
}

// TestMergesMatchSerialSort: a sort over an exchange of 2 and 4 workers,
// the external sort's run-copying runMerger under a budget small enough
// for several merge passes, and both at once emit byte for byte what the
// serial in-memory VecSort emits, ties and NULL keys included.
func TestMergesMatchSerialSort(t *testing.T) {
	const rows = 20000
	queries := []string{
		`SELECT id, k, s FROM ties ORDER BY k`,
		`SELECT id, k, s FROM ties ORDER BY k DESC`,
		`SELECT id, k, s FROM ties ORDER BY s, k`,
		`SELECT PROVENANCE k, s FROM ties ORDER BY k`,
	}
	serial := perm.NewDatabaseWithOptions(perm.Options{Parallelism: 1, MemoryLimit: -1})
	tiesTable(rows)(serial)
	for _, workers := range []int{1, 2, 4} {
		for _, limit := range []int64{-1, 96 << 10} {
			if workers == 1 && limit < 0 {
				continue // the reference itself
			}
			t.Run(fmt.Sprintf("workers=%d/limit=%d", workers, limit), func(t *testing.T) {
				db := perm.NewDatabaseWithOptions(perm.Options{Parallelism: workers, MemoryLimit: limit, SpillDir: t.TempDir()})
				tiesTable(rows)(db)
				for _, q := range queries {
					assertIdenticalResult(t, db, serial, q)
				}
				if st := db.QueryStats(); limit > 0 && st.BytesSpilled == 0 {
					t.Fatalf("a %d-byte budget never spilled: %+v", limit, st)
				}
				if workers > 1 {
					plan, err := db.ExplainSQL(queries[0])
					if err != nil || !strings.Contains(plan, fmt.Sprintf("workers=%d", workers)) {
						t.Fatalf("no exchange below the sort (err %v):\n%s", err, plan)
					}
				}
			})
		}
	}
}

// TestResultRowsDoNotAlias: the rows of a result are cut from one slab of
// values per batch, each capped at its own width, so growing one row
// reallocates it and leaves its neighbour alone.
func TestResultRowsDoNotAlias(t *testing.T) {
	db := perm.NewDatabase()
	tiesTable(3000)(db)
	for _, q := range []string{
		`SELECT id, k, s FROM ties`,              // vectorized: slab per batch
		`SELECT id, k, s FROM ties WHERE id < 5`, // a selection vector
	} {
		res := db.MustQuery(q)
		want := res.Rows[1][0].String()
		for i := range res.Rows {
			if cap(res.Rows[i]) != len(res.Rows[i]) {
				t.Fatalf("%s: row %d has capacity %d beyond its %d values", q, i, cap(res.Rows[i]), len(res.Rows[i]))
			}
		}
		res.Rows[0] = append(res.Rows[0], res.Rows[2]...)
		if got := res.Rows[1][0].String(); got != want {
			t.Fatalf("%s: appending to row 0 changed row 1: %s, want %s", q, got, want)
		}
	}
	// A cursor hands out slab-backed rows too, across Fetch boundaries.
	p, err := db.Prepare(`SELECT id, k, s FROM ties`)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	seen := 0
	for {
		rows, err := cur.Fetch(700) // not a divisor of the batch size
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			break
		}
		for _, row := range rows {
			if row[0].Int() != int64(seen) || cap(row) != len(row) {
				t.Fatalf("cursor row %d = %v (cap %d)", seen, row, cap(row))
			}
			seen++
		}
	}
	if seen != 3000 {
		t.Fatalf("cursor returned %d rows, want 3000", seen)
	}
}

// TestWideResultAllocs bounds what materializing a wide result costs in
// allocations: a constant per batch of 1024 rows (one slab of values and
// whatever column buffers miss the pool), not one or more per row as when
// every row was boxed on its own. Measured: 9 per batch, 24 under the race
// detector, which makes sync.Pool drop a quarter of what is returned to
// it; 1024 and more before. It also bounds the bytes: 24 a value, plus
// the row headers (24 bytes a row, allocated once), 25.2 in all. A Value
// that grows, a second copy of the result or a row list that grows by
// reallocation breaks the bound of 26.
func TestWideResultAllocs(t *testing.T) {
	const rows, width = 50 * 1024, 20
	db := perm.NewDatabaseWithOptions(perm.Options{Parallelism: 1, MemoryLimit: -1})
	tiesTable(rows)(db)
	cols := make([]string, width)
	for c := range cols {
		cols[c] = fmt.Sprintf("id + %d", c)
	}
	q := `SELECT ` + strings.Join(cols, ", ") + ` FROM ties`
	if res := db.MustQuery(q); len(res.Rows) != rows || len(res.Rows[0]) != width {
		t.Fatalf("result is %d x %d", len(res.Rows), len(res.Rows[0]))
	}
	allocs := testing.AllocsPerRun(3, func() { db.MustQuery(q) })
	const perBatch, fixed = 40, 400
	if budget := float64(perBatch*rows/1024 + fixed); allocs > budget {
		t.Fatalf("a %d x %d result cost %.0f allocations, budget %.0f", rows, width, allocs, budget)
	}
	perValue, budget := bytesPerRun(3, func() { db.MustQuery(q) })/(rows*width), 26.0
	if raceEnabled {
		budget += 3 // 27.4 measured: the batch buffers the pool dropped
	}
	if perValue > budget {
		t.Fatalf("a %d x %d result allocated %.2f bytes a value, budget %.0f", rows, width, perValue, budget)
	}
	t.Logf("%.0f allocations for %d batches, %.2f bytes a value", allocs, rows/1024, perValue)
}

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// bytesPerRun is testing.AllocsPerRun for bytes: the average number of
// bytes allocated by a call of f, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestStringsSurviveSelectInto: text values, the empty string and NULL
// among them, come back byte for byte after SELECT ... INTO stores them in
// a new table and a sorted query reads that table, on either engine and
// under a memory budget, beside a cast to text.
func TestStringsSurviveSelectInto(t *testing.T) {
	strs := []string{"", "a", "it's", "grüße\x00€", strings.Repeat("long ", 100)}
	for _, opts := range []perm.Options{{}, {DisableVectorized: true}, {MemoryLimit: 48 << 10}} {
		db := perm.NewDatabaseWithOptions(opts)
		db.MustExec(`CREATE TABLE src (id int, s text)`)
		db.MustExec(`INSERT INTO src VALUES (0, NULL)`)
		for i, s := range strs {
			db.MustExec(fmt.Sprintf(`INSERT INTO src VALUES (%d, %s)`, i+1, types.NewString(s).SQLLiteral()))
		}
		db.MustExec(`SELECT id, s, CAST(id AS text) AS t INTO dst FROM src`)
		res := db.MustQuery(`SELECT id, s, t FROM dst ORDER BY s, id`)
		if len(res.Rows) != len(strs)+1 {
			t.Fatalf("%+v: %d rows came back, want %d", opts, len(res.Rows), len(strs)+1)
		}
		for _, row := range res.RawRows() {
			id := row[0].I
			want := types.NewNull(types.KindString)
			if id > 0 {
				want = types.NewString(strs[id-1])
			}
			if !types.Identical(row[1], want) || !types.Identical(row[2], types.NewString(fmt.Sprint(id))) {
				t.Errorf("%+v: row %d came back as %q (null %v), %q", opts, id, row[1].Str(), row[1].Null, row[2].Str())
			}
		}
	}
}

// TestRawResultAdoptsRows: a client's result takes over the rows the wire
// decoder filled, float bits and all, rather than copying them again.
func TestRawResultAdoptsRows(t *testing.T) {
	cols := []string{"i", "f"}
	rows := [][]types.Value{
		{types.NewInt(1), types.NewFloat(math.Copysign(0, -1))},
		{types.NewNull(types.KindInt), types.NewFloat(math.NaN())},
	}
	res := perm.NewRawResult(cols, nil, rows)
	if &res.RawRows()[1][1] != &rows[1][1] || res.Rows[0][1].String() != "-0" || res.Rows[1][1].String() != "NaN" {
		t.Fatalf("result copies or changes the decoded rows: %v", res.Rows)
	}
	if allocs := testing.AllocsPerRun(10, func() { perm.NewRawResult(cols, nil, rows) }); allocs > 2 {
		t.Fatalf("NewRawResult costs %.0f allocations, want the result and its provenance flags", allocs)
	}
}

// TestStatementSeesOneSnapshotPerTable: q+ of an ungrouped count scans its
// table twice, once to count and once to list the witnesses. Both scans
// must read the same snapshot even while another session inserts, or the
// count and the number of witness rows disagree. A right self-join, which
// the batch engine leaves to a row operator, must likewise match every
// row of one snapshot with itself, on both engines.
func TestStatementSeesOneSnapshotPerTable(t *testing.T) {
	for _, opts := range []perm.Options{{}, {DisableVectorized: true}} {
		selfJoinSeesOneSnapshot(t, perm.NewDatabaseWithOptions(opts))
	}

	const inserts = 1500
	db := perm.NewDatabase()
	db.MustExec(`CREATE TABLE ev (id int); INSERT INTO ev VALUES (0)`)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= inserts; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO ev VALUES (%d)`, i))
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false // one last statement sees every insert
		default:
		}
		res := db.MustQuery(`SELECT PROVENANCE count(*) FROM ev`)
		if n := res.Rows[0][0].Int(); int64(len(res.Rows)) != n {
			t.Fatalf("a statement counted %d rows and listed %d witnesses", n, len(res.Rows))
		}
		if !running && len(res.Rows) != inserts+1 {
			t.Fatalf("%d rows after %d inserts", len(res.Rows), inserts)
		}
	}
}

// selfJoinSeesOneSnapshot runs a right self-join on unique keys while
// another goroutine inserts: every row of b matches its copy in a unless
// the two sides read different snapshots.
func selfJoinSeesOneSnapshot(t *testing.T, db *perm.Database) {
	t.Helper()
	db.MustExec(`CREATE TABLE t (x int)`)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for i := 0; i < 1500; i++ {
		res := db.MustQuery(`SELECT count(*) - count(a.x) FROM t a RIGHT JOIN t b ON a.x = b.x`)
		if n := res.Rows[0][0].Int(); n != 0 {
			t.Fatalf("statement %d: %d rows of b found no copy of themselves in a", i, n)
		}
	}
}
