package plan_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"perm/internal/analyze"
	"perm/internal/catalog"
	"perm/internal/exec"
	"perm/internal/mem"
	"perm/internal/optimize"
	"perm/internal/plan"
	"perm/internal/provrewrite"
	"perm/internal/sql"
	"perm/internal/synth"
	"perm/internal/tpch"
	"perm/internal/vexec"
)

// tpchCatalog is a catalog holding TPC-H at a scale factor big enough
// for lineitem to be morseled. It doubles as the optimizer's statistics.
type tpchCatalog struct{ *catalog.Catalog }

func newTPCHCatalog(t *testing.T) tpchCatalog {
	t.Helper()
	cat := tpchCatalog{catalog.New()}
	cat.run(t, tpch.SchemaSQL())
	d := tpch.Generate(0.002, 42)
	for _, name := range tpch.TableNames() {
		tab, _ := cat.Table(name)
		if err := tab.Heap.InsertAll(d.Tables[name]); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// run applies DDL: the tables of the schema, the views Q15 sets up.
func (c tpchCatalog) run(t *testing.T, ddl string) {
	t.Helper()
	stmts, err := sql.ParseAll(ddl)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stmts {
		switch s := st.(type) {
		case *sql.CreateTableStmt:
			cols := make([]catalog.Column, len(s.Cols))
			for i, col := range s.Cols {
				cols[i] = catalog.Column{Name: col.Name, Type: col.Type}
			}
			_, err = c.CreateTable(s.Name, cols, false)
		case *sql.CreateViewStmt:
			err = c.CreateView(s.Name, s.Query, s.OrReplace)
		case *sql.DropStmt:
			err = c.Drop(s.Name, s.View, s.IfExists)
		default:
			err = fmt.Errorf("unexpected DDL %T", st)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

var actualAnnot = regexp.MustCompile(` \(actual [^)]*\)$`)

// line is one EXPLAIN ANALYZE line taken apart.
type line struct {
	name   string // the operator's span name
	depth  int
	probed bool
	est    bool
}

func parseAnalyzed(report string) (stripped string, lines []line) {
	var sb strings.Builder
	for _, l := range strings.Split(strings.TrimRight(report, "\n"), "\n") {
		if strings.HasPrefix(l, "Execution time:") {
			continue
		}
		annot := actualAnnot.FindString(l)
		l = strings.TrimSuffix(l, annot)
		sb.WriteString(l + "\n")
		label := strings.TrimLeft(l, " ")
		name, _, _ := strings.Cut(label, " ")
		lines = append(lines, line{
			name: name, depth: (len(l) - len(label)) / 2,
			probed: strings.Contains(annot, "time="), est: strings.Contains(annot, "est="),
		})
	}
	return sb.String(), lines
}

// TestOneDescriptionAgrees: every reader of a plan sees the same
// operators in the same order. Over the Fig. 10 corpus and the Fig.
// 12-14 shapes, serial, parallel, spilling and on the row engine: EXPLAIN
// ANALYZE without its annotations is EXPLAIN line for line, and the
// trace spans and the estimate records are its probed lines, in order.
func TestOneDescriptionAgrees(t *testing.T) {
	cat := newTPCHCatalog(t)
	part, _ := cat.Table("part")
	maxKey := part.Heap.Len()

	type stmt struct {
		name, text      string
		setup, teardown []string
	}
	var stmts []stmt
	rng := tpch.NewRand(7)
	for _, n := range tpch.SupportedQueries() {
		q := tpch.MustQGen(n, rng)
		stmts = append(stmts,
			stmt{fmt.Sprintf("Q%d", n), q.Text, q.Setup, q.Teardown},
			stmt{fmt.Sprintf("Q%d+", n), q.Provenance().Text, q.Setup, q.Teardown})
	}
	prov := func(q string) string { return strings.Replace(q, "SELECT", "SELECT PROVENANCE", 1) }
	// A grouped count over lineitem: its aggregate runs over an exchange.
	const counts = `SELECT l_returnflag, count(*), max(l_shipdate) FROM lineitem GROUP BY l_returnflag`
	stmts = append(stmts, stmt{name: "counts", text: counts}, stmt{name: "counts+", text: prov(counts)})
	for _, n := range []int{1, 3, 5} {
		stmts = append(stmts,
			stmt{name: fmt.Sprintf("setop%d+", n), text: prov(synth.SetOpQuery(tpch.NewRand(uint64(n)), n, maxKey))},
			stmt{name: fmt.Sprintf("spj%d+", n), text: prov(synth.SPJQuery(tpch.NewRand(uint64(n)), n, maxKey))},
			stmt{name: fmt.Sprintf("aggchain%d+", n), text: prov(synth.AggChainQuery(n, maxKey))})
	}

	// marker is what some plan of the configuration has to show, or the
	// configuration did not take.
	configs := []struct {
		name, marker string // marker is a regexp
		planner      func() *plan.Planner
	}{
		{"serial", "^BatchToRow", func() *plan.Planner { return plan.New(cat.Catalog) }},
		{"workers=4", `Exchange \(workers=4\)`, func() *plan.Planner { return plan.New(cat.Catalog).SetParallelism(4) }},
		{"48KiB", "spill=on", func() *plan.Planner {
			return plan.New(cat.Catalog).SetResources(mem.NewGovernor(0).Session(48<<10), t.TempDir())
		}},
		{"row-engine", `(?m)^ *HashAggregate`, func() *plan.Planner { return plan.New(cat.Catalog).SetVectorized(false) }},
	}
	for _, cfg := range configs {
		marked := false
		for _, st := range stmts {
			t.Run(cfg.name+"/"+st.name, func(t *testing.T) {
				for _, ddl := range st.setup {
					cat.run(t, ddl)
				}
				defer func() {
					for _, ddl := range st.teardown {
						cat.run(t, ddl)
					}
				}()
				parsed, err := sql.Parse(st.text)
				if err != nil {
					t.Fatal(err)
				}
				q, err := analyze.New(cat.Catalog).AnalyzeSelect(parsed.(*sql.SelectStmt))
				if err != nil {
					t.Fatal(err)
				}
				if q, err = provrewrite.Rewrite(q); err != nil {
					t.Fatal(err)
				}
				node, err := cfg.planner().Plan(optimize.Query(q))
				if err != nil {
					t.Fatal(err)
				}
				explain := plan.Explain(node)
				marked = marked || regexp.MustCompile(cfg.marker).MatchString(explain)
				probed := plan.Instrument(node)
				if _, err := exec.Collect(probed); err != nil {
					t.Fatal(err)
				}

				// Under its probe, and (as the engine runs it) with the root
				// adapter left bare, reporting from the probe on its input.
				roots := []exec.Node{probed}
				if _, ok := node.(*vexec.RowSource); ok {
					roots = append(roots, node)
				}
				for _, root := range roots {
					stripped, lines := parseAnalyzed(plan.ExplainAnalyzed(root, 0, 0, 0))
					if stripped != explain {
						t.Fatalf("EXPLAIN ANALYZE without annotations differs from EXPLAIN:\n%s\nvs\n%s", stripped, explain)
					}
					if !lines[0].probed {
						t.Fatalf("the root line carries no measurement:\n%s", plan.ExplainAnalyzed(root, 0, 0, 0))
					}
					var wantSpans, wantEsts []string
					for _, l := range lines {
						if l.probed {
							wantSpans = append(wantSpans, fmt.Sprintf("%d:%s", l.depth+1, l.name))
						}
						if l.probed && l.est {
							wantEsts = append(wantEsts, l.name)
						}
					}
					var spans, ests []string
					for _, sp := range plan.OperatorSpans(root) {
						spans = append(spans, fmt.Sprintf("%d:%s", sp.Depth, sp.Name))
					}
					for _, e := range plan.OperatorEstimates(root) {
						ests = append(ests, e.Op)
					}
					if fmt.Sprint(spans) != fmt.Sprint(wantSpans) {
						t.Errorf("OperatorSpans visits\n%v\nEXPLAIN ANALYZE's probed lines are\n%v", spans, wantSpans)
					}
					if fmt.Sprint(ests) != fmt.Sprint(wantEsts) {
						t.Errorf("OperatorEstimates visits\n%v\nEXPLAIN ANALYZE's estimated lines are\n%v", ests, wantEsts)
					}
				}
			})
		}
		if !marked {
			t.Errorf("%s: no plan shows %q", cfg.name, cfg.marker)
		}
	}
}
