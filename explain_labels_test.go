package perm_test

import (
	"strings"
	"testing"

	"perm"
)

// TestExplainJoinAndSetOpLabels pins what EXPLAIN prints for every join
// kind (a cross join is an inner one) and every set operation, with and
// without ALL, on both engines: the batch engine's operators where it has
// them, the row engine's behind a batch-to-row adapter where it does not,
// and the row engine alone on a DisableVectorized handle. The last set
// operation mixes column kinds, which only the row engine's set operation
// takes.
func TestExplainJoinAndSetOpLabels(t *testing.T) {
	const fixture = `
		CREATE TABLE l (a int, b int);
		CREATE TABLE r (c int, d int);
		INSERT INTO l VALUES (1, 10), (2, 20), (3, 30);
		INSERT INTO r VALUES (2, 200), (3, 300), (4, 400), (4, 401);
	`
	engines := []struct {
		name string
		db   *perm.Database
	}{
		{"batch", perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1, Parallelism: -1})},
		{"row", perm.NewDatabaseWithOptions(perm.Options{MemoryLimit: -1, Parallelism: -1, DisableVectorized: true})},
	}
	for _, e := range engines {
		e.db.MustExec(fixture)
	}
	cases := []struct {
		q          string
		batch, row string
	}{
		{`SELECT a, d FROM l JOIN r ON a = c`, `
BatchToRow
  VecProject (2 cols)
    VecHashJoin (inner, 1 keys, RuntimeFilter)
      VecScan (4 rows, RuntimeFilter)
      VecScan (3 rows)
`, `
Project (2 cols)
  HashJoin (inner, 1 keys)
    Scan (4 rows)
    Scan (3 rows)
`},
		{`SELECT a, d FROM l LEFT JOIN r ON a = c`, `
BatchToRow
  VecProject (2 cols)
    VecHashJoin (left, 1 keys)
      VecScan (3 rows)
      VecScan (4 rows)
`, `
Project (2 cols)
  HashJoin (left, 1 keys)
    Scan (3 rows)
    Scan (4 rows)
`},
		{`SELECT a, d FROM l RIGHT JOIN r ON a = c`, `
Project (2 cols)
  HashJoin (right, 1 keys)
    BatchToRow
      VecScan (3 rows)
    BatchToRow
      VecScan (4 rows)
`, `
Project (2 cols)
  HashJoin (right, 1 keys)
    Scan (3 rows)
    Scan (4 rows)
`},
		{`SELECT a, d FROM l FULL JOIN r ON a = c`, `
Project (2 cols)
  HashJoin (full, 1 keys)
    BatchToRow
      VecScan (3 rows)
    BatchToRow
      VecScan (4 rows)
`, `
Project (2 cols)
  HashJoin (full, 1 keys)
    Scan (3 rows)
    Scan (4 rows)
`},
		{`SELECT a, d FROM l JOIN r ON a < c`, `
BatchToRow
  VecProject (2 cols)
    VecNestedLoopJoin (inner)
      VecScan (4 rows)
      VecScan (3 rows)
`, `
Project (2 cols)
  NestedLoopJoin (inner)
    Scan (4 rows)
    Scan (3 rows)
`},
		{`SELECT a, d FROM l LEFT JOIN r ON a < c`, `
BatchToRow
  VecProject (2 cols)
    VecNestedLoopJoin (left)
      VecScan (3 rows)
      VecScan (4 rows)
`, `
Project (2 cols)
  NestedLoopJoin (left)
    Scan (3 rows)
    Scan (4 rows)
`},
		{`SELECT a, d FROM l RIGHT JOIN r ON a < c`, `
Project (2 cols)
  NestedLoopJoin (right)
    BatchToRow
      VecScan (3 rows)
    BatchToRow
      VecScan (4 rows)
`, `
Project (2 cols)
  NestedLoopJoin (right)
    Scan (3 rows)
    Scan (4 rows)
`},
		{`SELECT a, d FROM l FULL JOIN r ON a < c`, `
Project (2 cols)
  NestedLoopJoin (full)
    BatchToRow
      VecScan (3 rows)
    BatchToRow
      VecScan (4 rows)
`, `
Project (2 cols)
  NestedLoopJoin (full)
    Scan (3 rows)
    Scan (4 rows)
`},
		{`SELECT a, d FROM l CROSS JOIN r`, `
BatchToRow
  VecProject (2 cols)
    VecNestedLoopJoin (inner)
      VecScan (4 rows)
      VecScan (3 rows)
`, `
Project (2 cols)
  NestedLoopJoin (inner)
    Scan (4 rows)
    Scan (3 rows)
`},
		{`SELECT a FROM l UNION SELECT c FROM r`, `
BatchToRow
  VecSetOp (union, all=false)
    VecProject (1 cols)
      VecScan (3 rows)
    VecProject (1 cols)
      VecScan (4 rows)
`, `
SetOp (union, all=false)
  Project (1 cols)
    Scan (3 rows)
  Project (1 cols)
    Scan (4 rows)
`},
		{`SELECT a FROM l UNION ALL SELECT c FROM r`, `
BatchToRow
  VecSetOp (union, all=true)
    VecProject (1 cols)
      VecScan (3 rows)
    VecProject (1 cols)
      VecScan (4 rows)
`, `
SetOp (union, all=true)
  Project (1 cols)
    Scan (3 rows)
  Project (1 cols)
    Scan (4 rows)
`},
		{`SELECT a FROM l INTERSECT SELECT c FROM r`, `
BatchToRow
  VecSetOp (intersect, all=false)
    VecProject (1 cols)
      VecScan (3 rows)
    VecProject (1 cols)
      VecScan (4 rows)
`, `
SetOp (intersect, all=false)
  Project (1 cols)
    Scan (3 rows)
  Project (1 cols)
    Scan (4 rows)
`},
		{`SELECT a FROM l INTERSECT ALL SELECT c FROM r`, `
BatchToRow
  VecSetOp (intersect, all=true)
    VecProject (1 cols)
      VecScan (3 rows)
    VecProject (1 cols)
      VecScan (4 rows)
`, `
SetOp (intersect, all=true)
  Project (1 cols)
    Scan (3 rows)
  Project (1 cols)
    Scan (4 rows)
`},
		{`SELECT a FROM l EXCEPT SELECT c FROM r`, `
BatchToRow
  VecSetOp (except, all=false)
    VecProject (1 cols)
      VecScan (3 rows)
    VecProject (1 cols)
      VecScan (4 rows)
`, `
SetOp (except, all=false)
  Project (1 cols)
    Scan (3 rows)
  Project (1 cols)
    Scan (4 rows)
`},
		{`SELECT a FROM l EXCEPT ALL SELECT c FROM r`, `
BatchToRow
  VecSetOp (except, all=true)
    VecProject (1 cols)
      VecScan (3 rows)
    VecProject (1 cols)
      VecScan (4 rows)
`, `
SetOp (except, all=true)
  Project (1 cols)
    Scan (3 rows)
  Project (1 cols)
    Scan (4 rows)
`},
		{`SELECT a FROM l UNION SELECT d * 0.5 FROM r`, `
SetOp (union, all=false)
  BatchToRow
    VecProject (1 cols)
      VecScan (3 rows)
  BatchToRow
    VecProject (1 cols)
      VecScan (4 rows)
`, `
SetOp (union, all=false)
  Project (1 cols)
    Scan (3 rows)
  Project (1 cols)
    Scan (4 rows)
`},
	}
	for _, c := range cases {
		for _, e := range engines {
			got, err := e.db.ExplainSQL(c.q)
			if err != nil {
				t.Fatalf("%s: %v", c.q, err)
			}
			want := c.batch
			if e.name == "row" {
				want = c.row
			}
			want = strings.TrimPrefix(want, "\n")
			if got != want {
				t.Errorf("%s on the %s engine:\n%s\nwant:\n%s", c.q, e.name, got, want)
			}
		}
	}
}
