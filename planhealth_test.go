package perm_test

import (
	"strings"
	"testing"

	"perm"
	"perm/internal/obs"
)

// TestPlanFlipRecorded drives the plan-flip scenario end to end: a join
// compiled while one side is tiny, then recompiled after bulk DML
// inverts the table sizes, swaps the hash-join build side — a
// structural plan change the flip store must record with the catalog
// trigger, and the event log must carry.
func TestPlanFlipRecorded(t *testing.T) {
	planFlipScenario(t, func(db *perm.Database, q string) func() error {
		return func() error { _, err := db.Query(q); return err }
	})
}

// TestPlanFlipRecordedThroughPreparedAndCursor: the same scenario run
// through Prepared.Run and through a Cursor records the one catalog flip
// Query does. Prepare compiles outside any statement, so the first
// statement that runs its tree hashes the plan in its stead.
func TestPlanFlipRecordedThroughPreparedAndCursor(t *testing.T) {
	t.Run("Run", func(t *testing.T) {
		planFlipScenario(t, func(db *perm.Database, q string) func() error {
			p, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := p.Run(); return err }
		})
	})
	t.Run("Cursor", func(t *testing.T) {
		planFlipScenario(t, func(db *perm.Database, q string) func() error {
			p, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			return func() error {
				c, err := p.Start()
				if err != nil {
					return err
				}
				if _, err := c.Fetch(0); err != nil {
					return err
				}
				return c.Close()
			}
		})
	})
}

// planFlipScenario runs the join through the runner entry returns for it,
// bulk-inserts 2000 rows into its tiny side, runs it again, and requires
// exactly one recorded flip, with the catalog trigger.
func planFlipScenario(t *testing.T, entry func(db *perm.Database, q string) func() error) {
	t.Helper()
	db := perm.NewDatabase()
	db.MustExec("CREATE TABLE r (a INT, b INT)")
	db.MustExec("INSERT INTO r VALUES (1,2),(3,4),(5,6)")
	db.MustExec("CREATE TABLE s (a INT)")
	db.MustExec("INSERT INTO s VALUES (1)")
	flipsBefore := obs.PlanFlips.Load()

	run := entry(db, "SELECT r.a FROM r, s WHERE r.a = s.a")
	if err := run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		db.MustExec("INSERT INTO s VALUES (7)")
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}

	if got := obs.PlanFlips.Load(); got != flipsBefore+1 {
		t.Fatalf("perm_plan_flips_total moved by %d, want 1", got-flipsBefore)
	}
	res := db.MustQuery("SELECT fingerprint, old_plan, new_plan, trigger FROM perm_stat_plans")
	if len(res.Rows) != 1 {
		t.Fatalf("perm_stat_plans has %d rows, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row[1].String() == row[2].String() {
		t.Fatalf("flip recorded identical hashes %s", row[1].String())
	}
	if row[3].String() != "catalog" {
		t.Fatalf("trigger %q, want catalog (DML moved the catalog version)", row[3].String())
	}
	events := db.MustQuery("SELECT kind FROM perm_events WHERE kind = 'plan_flip'")
	if len(events.Rows) == 0 {
		t.Fatal("plan flip missing from perm_events")
	}
}

// TestPlanStableAcrossPureGrowth: DML that changes cardinalities but not
// the plan's structure must NOT count as a flip — row counts are masked
// out of the plan hash.
func TestPlanStableAcrossPureGrowth(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec("CREATE TABLE g (a INT)")
	db.MustExec("INSERT INTO g VALUES (1),(2),(3)")
	flipsBefore := obs.PlanFlips.Load()
	q := "SELECT a FROM g WHERE a > 1 ORDER BY a"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO g VALUES (4),(5),(6),(7)")
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := obs.PlanFlips.Load(); got != flipsBefore {
		t.Fatalf("pure growth counted as %d plan flips", got-flipsBefore)
	}
}

// TestEventLogTapsCancel: a successful live cancellation lands in the
// engine event log.
func TestEventLogTapsCancel(t *testing.T) {
	db := perm.NewDatabase()
	db.MustExec("CREATE TABLE c (a INT)")
	seqBefore := obs.Events.LastSeq()
	if err := db.Cancel("no-such-query"); err == nil {
		t.Fatal("cancelling a missing query succeeded")
	}
	if obs.Events.LastSeq() != seqBefore {
		t.Fatal("failed cancel recorded an event")
	}
}

// TestPlanHealthOffHotPath: cache-hit executions must not render plans,
// hash anything, or append events — the plan-health layer works at
// compile boundaries only. Estimates never leak into plain EXPLAIN
// either: that output is golden-tested and replica-shape-validated.
func TestPlanHealthOffHotPath(t *testing.T) {
	db := perm.NewDatabaseWithOptions(perm.Options{TraceSample: -1})
	db.MustExec("CREATE TABLE h (a INT, b INT)")
	db.MustExec("INSERT INTO h VALUES (1,2),(3,4)")
	q := "SELECT a FROM h WHERE a > 1"
	db.MustQuery(q) // fresh compile: hashed once here
	seqBefore := obs.Events.LastSeq()
	flipsBefore := obs.PlanFlips.Load()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 90 {
		t.Fatalf("cache-hit query allocated %.0f times: plan-health leaked onto the hot path", allocs)
	}
	if obs.Events.LastSeq() != seqBefore {
		t.Fatal("cache-hit executions appended engine events")
	}
	if obs.PlanFlips.Load() != flipsBefore {
		t.Fatal("cache-hit executions moved the flip counter")
	}
	plan, err := db.ExplainSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "est=") {
		t.Fatalf("plain EXPLAIN leaked estimates:\n%s", plan)
	}
}
