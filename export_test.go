package perm

import (
	"os"
	"strconv"
	"strings"
	"time"

	"perm/internal/algebra"
	"perm/internal/analyze"
	"perm/internal/deparse"
	"perm/internal/sql"
)

// A handle's resolved settings and the cache key of an option set, for
// the tests of package perm_test.

func (db *Database) TraceEvery() int { return max(db.opts.TraceSample, 0) }

func (db *Database) Timeout() time.Duration { return max(db.opts.StatementTimeout, 0) }

func CacheKey(o Options) string { return optionsFingerprint(withEnvDefaults(o)) }

// EnvError is the error withEnvDefaults reports for the current value of
// the environment variable name, nil when the value is accepted or unset.
func EnvError(name string) error {
	for i := range settings {
		if v := os.Getenv(name); settings[i].Env == name && v != "" {
			var o Options
			return settings[i].parse(&o, v)
		}
	}
	return nil
}

// SortKeysSQL returns the query with each ORDER BY key that is not an
// output column appended as one (the text itself when there is none), and
// where every key sits in its rows; nil positions when the statement has
// no ORDER BY.
func (db *Database) SortKeysSQL(text string) (string, []int, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return "", nil, err
	}
	q, err := analyze.New(db.cat).AnalyzeSelect(stmt.(*sql.SelectStmt))
	if err != nil || len(q.OrderBy) == 0 {
		return "", nil, err
	}
	pos, width := make([]int, len(q.OrderBy)), len(q.TargetList)
	for i, si := range q.OrderBy {
		if v, ok := si.Expr.(*algebra.Var); ok && v.RT == -1 {
			pos[i] = v.Col
			continue
		}
		pos[i] = len(q.TargetList)
		q.TargetList = append(q.TargetList, algebra.TargetEntry{Expr: si.Expr, Name: "sort_key_" + strconv.Itoa(i+1)})
	}
	if len(q.TargetList) > width {
		text = deparse.Query(q)
	}
	return text, pos, nil
}

// ViewSchema renders a system view's declared columns as
// "name kind, name kind, ...", "" when no such view exists.
func (db *Database) ViewSchema(name string) string {
	v, ok := db.cat.Virtual(name)
	if !ok {
		return ""
	}
	cols := make([]string, len(v.Cols))
	for i, c := range v.Cols {
		cols[i] = c.Name + " " + c.Type.String()
	}
	return strings.Join(cols, ", ")
}

// CompiledTree is the tree a plan-cache miss compiles a SELECT text to:
// what the cache stores and every execution of the statement plans from.
func (db *Database) CompiledTree(text string) (*algebra.Query, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return db.compile(stmt.(*sql.SelectStmt), nil)
}

// Kind names a result value's kind as ViewSchema does.
func (v Value) Kind() string { return v.v.K.String() }
