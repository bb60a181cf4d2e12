package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"perm"
	"perm/internal/obs"
	"perm/internal/tpch"
	"perm/internal/types"
	"perm/permclient"
)

// The traced pass. It never feeds an end-to-end metric: those come from
// runUntraced. It (1) runs the workload's own loop for a quarter of the
// time to read the counters of qcache, mem and spill where the work
// happens, (2) checks that the shadow pipeline returns what the engine
// returns and then replays the first draw stage by stage for the rest of
// the time, (3) runs a few rounds under each ablated
// configuration, and (4) probes storage directly (wire_mixed probes its
// server in step 1, while it has one).

const (
	minCycles      = 5 // a stage time is a median over at least this many replays of its statement
	spanCycles     = 3 // cycles whose spans go to trace.json
	ablationRounds = 3 // timed rounds per configuration, after one untimed
)

// stmtTrace is what the cycles measured for one statement, in ms.
type stmtTrace struct {
	plain, traced                   []*stages
	cold, warm, planOnly, drainOnly []float64
}

func durs(sts []*stages, get func(*stages) time.Duration) []float64 {
	out := make([]float64, len(sts))
	for i, st := range sts {
		out[i] = ms(get(st))
	}
	return out
}

// counters is a snapshot of the counts the engine keeps at its cache and
// memory layers, read from the handle when embedded and from
// perm_metrics over the wire otherwise.
type counters struct {
	hits, misses, invalidations, evictions float64
	denials, spilledBytes, spillEvents     float64
	peakBytes, shed                        float64
}

func (a counters) minus(b counters) counters {
	return counters{a.hits - b.hits, a.misses - b.misses, a.invalidations - b.invalidations, a.evictions - b.evictions,
		a.denials - b.denials, a.spilledBytes - b.spilledBytes, a.spillEvents - b.spillEvents,
		a.peakBytes, a.shed - b.shed}
}

func embeddedCounters(h *perm.Database) counters {
	c, q := h.QueryCacheStats(), h.SessionQueryStats()
	return counters{hits: float64(c.Hits), misses: float64(c.Misses), invalidations: float64(c.Invalidations),
		evictions: float64(c.Evictions), denials: float64(obs.MemDenials.Load()),
		spilledBytes: float64(q.BytesSpilled), spillEvents: float64(q.SpillEvents), peakBytes: float64(q.PeakMemory)}
}

func wireCounters(c *permclient.Client) (counters, error) {
	res, err := c.Query(`SELECT name, labels, value FROM perm_metrics`)
	if err != nil {
		return counters{}, err
	}
	v := make(map[string]float64)
	for _, row := range res.Rows {
		v[row[0].String()+"{"+row[1].String()+"}"] = row[2].Float()
	}
	lookups := func(event string) float64 { return v[`perm_qcache_lookups_total{event="`+event+`"}`] }
	return counters{hits: lookups("hit"), misses: lookups("miss"), invalidations: lookups("invalidation"),
		evictions: lookups("eviction"), denials: v["perm_mem_denials_total{}"],
		spilledBytes: v["perm_mem_spilled_bytes_total{}"], spillEvents: v["perm_mem_spill_events_total{}"],
		peakBytes: v["perm_mem_peak_bytes{}"], shed: v["perm_conns_shed_total{}"]}, nil
}

// opClass maps a physical operator to the layer metric its self time is
// charged to. Row-engine operators and the batch-to-row adapter are the
// fallback the roadmap wants retired.
func opClass(name string) string {
	switch name {
	case "VecScan":
		return "vexec.scan_ms"
	case "VecHashJoin", "VecNestedLoopJoin":
		return "vexec.join_ms"
	case "VecHashAggregate", "ParallelAgg":
		return "vexec.agg_ms"
	case "VecSort", "VecTopN", "ParallelSort":
		return "vexec.sort_ms"
	case "VecSetOp", "VecDistinct":
		return "vexec.setop_ms"
	case "VecFilter", "VecProject", "VecLimit", "Exchange":
		return "vexec.other_ms"
	default:
		return "exec.fallback_ms"
	}
}

var opClasses = []string{"vexec.scan_ms", "vexec.join_ms", "vexec.agg_ms", "vexec.sort_ms",
	"vexec.setop_ms", "vexec.other_ms", "exec.fallback_ms"}

// selfTimes splits a traced execution by operator class: a span's self
// time is its duration minus its children's. It also returns the rows
// that scans produced.
func selfTimes(ops []obs.Span) (byClass map[string]float64, scanned int64) {
	byClass = make(map[string]float64)
	for i, op := range ops {
		self := op.DurNS
		for _, child := range ops[i+1:] {
			if child.Depth <= op.Depth {
				break
			}
			if child.Depth == op.Depth+1 {
				self -= child.DurNS
			}
		}
		byClass[opClass(op.Name)] += float64(self) / 1e6
		if op.Name == "VecScan" || op.Name == "Scan" {
			scanned += op.Rows
		}
	}
	return byClass, scanned
}

// roundTime runs the statements once through run and returns the summed
// latency in ms.
func roundTime(stmts []stmt, run func(string) error) (float64, error) {
	total := 0.0
	for _, s := range stmts {
		t0 := time.Now()
		if err := run(s.sql); err != nil {
			return 0, fmt.Errorf("%s: %w", s.label(), err)
		}
		total += ms(time.Since(t0))
	}
	return total, nil
}

// ablate times rounds of the first draw under configurations that differ
// from the workload's in one setting. Configurations take turns within a
// repetition, so drift in machine load hits all of them alike.
func ablate(h *perm.Database, stmts []stmt) (map[string]float64, error) {
	base := h.Opts()
	with := func(change func(*perm.Options)) func(string) error {
		o := base
		change(&o)
		v := h.WithOptions(o)
		return func(text string) error { _, err := v.Query(text); return err }
	}
	variants := []struct {
		name string
		run  func(string) error
	}{
		{"base", with(func(*perm.Options) {})},
		{"vec_off", with(func(o *perm.Options) { o.DisableVectorized = true })},
		{"opt_off", with(func(o *perm.Options) { o.DisableOptimizer = true })},
		{"serial", with(func(o *perm.Options) { o.Parallelism = -1 })},
		{"trace_on", with(func(o *perm.Options) { o.TraceSample = 1 })},
		{"timeout_armed", with(func(o *perm.Options) { o.StatementTimeout = time.Hour })},
		{"analyzed", func(text string) error { _, _, err := h.QueryAnalyzed(text); return err }},
		{"unbudgeted", with(func(o *perm.Options) { o.MemoryLimit = -1 })},
	}
	if base.MemoryLimit <= 0 {
		variants = variants[:len(variants)-1] // already unbudgeted
	}
	samples := make(map[string][]float64)
	for rep := 0; rep <= ablationRounds; rep++ {
		for _, v := range variants {
			t, err := roundTime(stmts, v.run)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v.name, err)
			}
			if rep > 0 { // the first round compiles under the variant's own cache key
				samples[v.name] = append(samples[v.name], t)
			}
		}
	}
	out := make(map[string]float64)
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out, nil
}

// storageProbes times what one inserted row costs the next reader of
// lineitem: the columnar re-pivot and the statistics rebuild.
func storageProbes(sh *shadow) (snapshotMS, statsMS float64, err error) {
	t, ok := sh.cat.Table("lineitem")
	if !ok {
		return 0, 0, fmt.Errorf("shadow catalog has no lineitem")
	}
	kinds := make([]types.Kind, len(t.Cols))
	for i, c := range t.Cols {
		kinds[i] = c.Type
	}
	rows := t.Heap.Snapshot()
	if len(rows) == 0 {
		return 0, 0, fmt.Errorf("lineitem is empty")
	}
	var snaps, stats []float64
	for i := 0; i < 3; i++ {
		if err := t.Heap.Insert(rows[0].Clone()); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		t.Heap.SnapshotColumns(kinds)
		snaps = append(snaps, ms(time.Since(t0)))
		t0 = time.Now()
		t.Stats()
		stats = append(stats, ms(time.Since(t0)))
	}
	return median(snaps), median(stats), nil
}

// runTraced produces a workload's per-layer metrics and its spans.
func runTraced(w workload, cfg config) (*runResult, []span, error) {
	clients := 1
	if w.wire {
		clients = wireClients
	}
	res := newResult(w, cfg, true, clients)
	m := make(metrics)
	for _, d := range perLayer {
		m.put(perLayer, d.Name, 0, 0)
	}

	// Load the engine and the shadow catalog from one generated dataset.
	d := tpch.Generate(w.sf, dataSeed)
	db := perm.NewDatabase()
	if _, err := db.Exec(tpch.SchemaSQL()); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	for _, name := range tpch.TableNames() {
		if err := db.InsertRows(name, d.Tables[name]); err != nil {
			return nil, nil, err
		}
	}
	m.put(perLayer, "storage.load_rows_per_s", ratio(float64(d.RowCount()), time.Since(t0).Seconds()), d.RowCount())
	sh, err := newShadow(d, w.opts.MemoryLimit, cfg.tmpDir)
	if err != nil {
		return nil, nil, err
	}
	sh.wireAll = w.wire
	opts := w.opts
	opts.SpillDir = cfg.tmpDir
	h := db.WithOptions(opts)
	opts.DisableQueryCache = true
	cold := db.WithOptions(opts)

	stmts := w.statements(cfg.seed, len(d.Tables["part"]))
	perSet := len(stmts) / w.sets
	replayed := stmts[:perSet] // the first draw; one draw keeps a cycle short enough for minCycles of them
	var t tally
	refs := references(db, stmts, &t)
	cfg.logf("%s: loaded, %d references computed", w.name, len(stmts))

	tr := &tracer{t0: time.Now()}

	cfg.logf("%s: running the workload's loop for its counters", w.name)
	// (1) The workload's own loop, for the counters.
	var rec *recorder
	var delta counters
	counterSeconds := cfg.seconds / 4
	if w.wire {
		if rec, delta, err = wireLayers(m, w, cfg, h, stmts, refs, counterSeconds); err != nil {
			return nil, nil, err
		}
	} else {
		if err := warmEmbedded(h, stmts); err != nil {
			return nil, nil, err
		}
		before := embeddedCounters(h)
		rec = timedEmbedded(h, stmts, refs, counterSeconds, cfg.seed)
		delta = embeddedCounters(h).minus(before)
	}
	rounds := float64(rec.attempted) / float64(perSet)
	m.put(perLayer, "qcache.hit_rate", ratio(delta.hits, delta.hits+delta.misses), int(delta.hits+delta.misses))
	m.put(perLayer, "qcache.evictions_per_stmt", ratio(delta.evictions, float64(rec.attempted)), rec.attempted)
	m.put(perLayer, "mem.peak_reserved_mb", delta.peakBytes/(1<<20), 0)
	m.put(perLayer, "mem.denials_per_round", ratio(delta.denials, rounds), 0)
	m.put(perLayer, "spill.mb_per_round", ratio(delta.spilledBytes/(1<<20), rounds), 0)
	m.put(perLayer, "spill.events_per_round", ratio(delta.spillEvents, rounds), 0)
	t.merge(&rec.tally)

	cfg.logf("%s: replaying %d statements stage by stage", w.name, len(replayed))
	// (2) Stage cycles over the first draw. Before anything is timed, the
	// traced replay, the plain replay and with them the wire round trip
	// must return what the reference returned: the stage times of a
	// pipeline that computes something else describe nothing, so a
	// mismatch ends the pass without them. The check is also the replays'
	// warm-up, so no timed cycle pays a first touch.
	deadline := in(cfg.seconds - counterSeconds)
	for i, s := range replayed {
		for _, checked := range []*tracer{{}, nil} { // traced without recording, then plain
			back, _, err := sh.replay(s.label(), s.sql, checked)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", s.label(), err)
			}
			t.attempt()
			if got := sign(perm.NewRawResult(back.Columns, back.Prov, back.Rows)); refs[i] == nil || !got.equal(refs[i]) {
				t.fail("shadow %s: got %v, reference %v", s.label(), got, refs[i])
			}
		}
	}
	if t.failed > 0 {
		return res.finish(&t, m), nil, nil
	}
	traces := make([]stmtTrace, len(replayed))
	// A cycle allocates the same amount every time, so in a fixed order the
	// garbage collector would run during the same statements of every
	// cycle and their medians would carry it. A new order per cycle spreads
	// it over all of them.
	order := make([]int, len(replayed))
	for i := range order {
		order[i] = i
	}
	rng := tpch.NewRand(cfg.seed ^ 0x6379636c65)
	cycles := 0
	for ; cycles < minCycles || time.Now().Before(deadline); cycles++ {
		tr.keep = cycles < spanCycles
		shuffle(rng, order)
		for _, i := range order {
			s, st := replayed[i], &traces[i]
			label := fmt.Sprintf("%s:%s@%d", w.name, s.label(), cycles)
			_, traced, err := sh.replay(label, s.sql, tr)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", label, err)
			}
			_, plain, err := sh.replay(label, s.sql, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", label, err)
			}
			st.traced, st.plain = append(st.traced, traced), append(st.plain, plain)
			for _, run := range []struct {
				h   *perm.Database
				dst *[]float64
			}{{cold, &st.cold}, {h, &st.warm}} {
				t0 := time.Now()
				if _, err := run.h.Query(s.sql); err != nil {
					return nil, nil, fmt.Errorf("%s: %w", label, err)
				}
				*run.dst = append(*run.dst, ms(time.Since(t0)))
			}
			planD, drainD, err := sh.planAndDrain(s.sql)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", label, err)
			}
			st.planOnly, st.drainOnly = append(st.planOnly, ms(planD)), append(st.drainOnly, ms(drainD))
		}
	}
	stageMetrics(m, replayed, traces, cycles)

	cfg.logf("%s: %d cycles; ablations", w.name, cycles)
	// (3) Ablations on the first draw.
	abl, err := ablate(h, stmts[:perSet])
	if err != nil {
		return nil, nil, err
	}
	n := ablationRounds
	m.put(perLayer, "vexec.vec_speedup_x", ratio(abl["vec_off"], abl["base"]), n)
	m.put(perLayer, "optimize.opt_speedup_x", ratio(abl["opt_off"], abl["base"]), n)
	if runtime.NumCPU() > 1 { // on one CPU the ratio would only measure the exchange's overhead
		m.put(perLayer, "vexec.par_speedup_x", ratio(abl["serial"], abl["base"]), n)
	}
	m.put(perLayer, "obs.trace_overhead_x", ratio(abl["trace_on"], abl["base"]), n)
	m.put(perLayer, "obs.analyze_overhead_x", ratio(abl["analyzed"], abl["base"]), n)
	m.put(perLayer, "obs.timeout_armed_overhead_x", ratio(abl["timeout_armed"], abl["base"]), n)
	if w.opts.MemoryLimit > 0 {
		m.put(perLayer, "spill.cost_x", ratio(abl["base"], abl["unbudgeted"]), n)
	}

	// (4) Storage probes.
	snapMS, statsMS, err := storageProbes(sh)
	if err != nil {
		return nil, nil, err
	}
	m.put(perLayer, "storage.snapshot_rebuild_ms", snapMS, 3)
	m.put(perLayer, "catalog.stats_rebuild_ms", statsMS, 3)

	return res.finish(&t, m), tr.spans, nil
}

// maxUnattributed is how far the summed stage times of the shadow
// pipeline may be from the cold db.Query they are meant to explain.
const maxUnattributed = 0.15

// gateAttribution marks a traced result whose stages do not add up to
// the statement as incorrect: per-layer numbers that explain something
// else than the engine's own pipeline are not to be used.
func gateAttribution(r *runResult) {
	if u := r.Metrics["trace.unattributed_share"].Value; r.Correct && math.Abs(u) >= maxUnattributed {
		r.Correct = false
		r.Failures = append(r.Failures, fmt.Sprintf("the shadow pipeline's stages are %.3f of a cold db.Query away from it (limit %.2f)", u, maxUnattributed))
	}
}

// stageMetrics turns the cycles into the per-layer metrics of the
// compile, execute, result and wire layers. A statement counts with the
// median of its cycles; statements are combined by mean for times (so a
// change in any one shows) and by sums for shares and ratios.
func stageMetrics(m metrics, stmts []stmt, traces []stmtTrace, cycles int) {
	med := func(i int, get func(*stages) time.Duration) float64 { return median(durs(traces[i].plain, get)) }
	perForm := func(name string, get func(*stages) time.Duration) {
		var norm, prov []float64
		for i, s := range stmts {
			if s.prov {
				prov = append(prov, med(i, get)*1000)
			} else {
				norm = append(norm, med(i, get)*1000)
			}
		}
		m.put(perLayer, name+".norm", mean(norm), cycles)
		m.put(perLayer, name+".prov", mean(prov), cycles)
	}
	perForm("sql.parse_us", func(st *stages) time.Duration { return st.parse })
	perForm("analyze.analyze_us", func(st *stages) time.Duration { return st.analyze })
	perForm("provrewrite.rewrite_us", func(st *stages) time.Duration { return st.rewrite })
	perForm("optimize.optimize_us", func(st *stages) time.Duration { return st.optimize })
	perForm("plan.plan_us", func(st *stages) time.Duration { return st.plan })

	var (
		compile, execute, cold, warm, box, tracedAll, plainAll []float64
		unexplained                                            []float64 // per statement, as a share of its cold db.Query
		encodeNS, decodeNS, frameBytes, cells, maxFrame        float64
		nodesRewritten, nodesOptimized, nodesProvIn            float64
		nodesProvOut, scanned, rowsOut                         float64
		rowBlowup, colBlowup                                   []float64
	)
	classes := make(map[string][]float64)
	whole := func(st *stages) time.Duration { return st.pipeline() + st.encode + st.decode }
	for i, s := range stmts {
		tc := &traces[i]
		compile = append(compile, med(i, (*stages).compile))
		execute = append(execute, med(i, func(st *stages) time.Duration { return st.execute }))
		cold, warm = append(cold, median(tc.cold)), append(warm, median(tc.warm))
		// The cold db.Query and the plain replay of one cycle run back to
		// back, so their difference is free of the box's drift between
		// cycles; the difference of their medians is not.
		gaps := make([]float64, len(tc.cold))
		for c := range gaps {
			gaps[c] = tc.cold[c] - ms(tc.plain[c].pipeline())
		}
		unexplained = append(unexplained, ratio(median(gaps), median(tc.cold)))
		box = append(box, median(tc.warm)-median(tc.planOnly)-median(tc.drainOnly))
		tracedAll = append(tracedAll, median(durs(tc.traced, whole)))
		plainAll = append(plainAll, median(durs(tc.plain, whole)))

		last := tc.plain[len(tc.plain)-1] // counts are the same in every cycle
		encodeNS += med(i, func(st *stages) time.Duration { return st.encode }) * 1e6
		decodeNS += med(i, func(st *stages) time.Duration { return st.decode }) * 1e6
		if last.frameBytes > 0 { // went through the wire stages
			frameBytes += float64(last.frameBytes)
			maxFrame = math.Max(maxFrame, float64(last.frameBytes))
			cells += float64(last.rows * last.cols)
		}
		nodesRewritten += float64(last.nodesRewritten)
		nodesOptimized += float64(last.nodesOptimized)
		rowsOut += float64(last.rows)
		if s.prov {
			nodesProvIn += float64(last.nodesAnalyzed)
			nodesProvOut += float64(last.nodesRewritten)
			base := traces[i-1].plain[0] // the q of this q+
			rowBlowup = append(rowBlowup, math.Max(float64(last.rows), 1)/math.Max(float64(base.rows), 1))
			colBlowup = append(colBlowup, float64(last.cols)/float64(base.cols))
		}

		perCycle := make(map[string][]float64)
		var rowsScanned int64
		for _, st := range tc.traced {
			byClass, n := selfTimes(st.ops)
			for _, c := range opClasses {
				perCycle[c] = append(perCycle[c], byClass[c])
			}
			rowsScanned = n // a count: the same in every cycle
		}
		scanned += float64(rowsScanned)
		for _, c := range opClasses {
			classes[c] = append(classes[c], median(perCycle[c]))
		}
	}
	explained := sum(compile) + sum(execute)
	m.put(perLayer, "pipeline.compile_share", ratio(sum(compile), explained), cycles)
	// The middle statement decides: weighted by time, the few samples of
	// the one long statement would decide the share and with it the gate,
	// and a mean follows a 5 ms statement that met a garbage collection.
	m.put(perLayer, "trace.unattributed_share", median(unexplained), cycles)
	m.put(perLayer, "trace.overhead_x", ratio(sum(tracedAll), sum(plainAll)), cycles)
	m.put(perLayer, "qcache.warm_over_cold_x", ratio(sum(warm), sum(cold)), cycles)
	m.put(perLayer, "vexec.execute_ms", mean(execute), cycles)
	m.put(perLayer, "perm.result_box_ms", mean(box), cycles)
	for _, c := range opClasses {
		m.put(perLayer, c, mean(classes[c]), cycles)
	}
	m.put(perLayer, "vexec.rows_scanned_per_row_out", ratio(scanned, rowsOut), 0)
	m.put(perLayer, "provrewrite.node_blowup_x", ratio(nodesProvOut, nodesProvIn), 0)
	m.put(perLayer, "optimize.node_shrink_x", ratio(nodesOptimized, nodesRewritten), 0)
	m.put(perLayer, "prov.row_blowup_x", geomean(rowBlowup), 0)
	m.put(perLayer, "prov.col_blowup_x", geomean(colBlowup), 0)
	m.put(perLayer, "wire.encode_ns_per_value", ratio(encodeNS, cells), cycles)
	m.put(perLayer, "wire.decode_ns_per_value", ratio(decodeNS, cells), cycles)
	m.put(perLayer, "wire.bytes_per_value", ratio(frameBytes, cells), 0)
	m.put(perLayer, "wire.max_frame_mb", maxFrame/(1<<20), 0)
}

// wireLayers runs wire_mixed's loop against a permd child for the
// server-side counters, then probes the idle server.
func wireLayers(m metrics, w workload, cfg config, h *perm.Database, stmts []stmt, refs []*signature, seconds float64) (rec *recorder, delta counters, err error) {
	bin, err := buildPermd(cfg)
	if err != nil {
		return nil, delta, err
	}
	rig, err := startRig(bin, w, cfg, stmts)
	if err != nil {
		return nil, delta, err
	}
	defer func() {
		if cerr := rig.close(); err == nil {
			err = cerr
		}
	}()
	before, err := wireCounters(rig.clients[0])
	if err != nil {
		return nil, delta, err
	}
	retries := obs.ClientRetries.Load()
	mix := newMixed(stmts, refs)
	rec = mix.drive(rig, cfg.seed, seconds)
	after, err := wireCounters(rig.clients[0])
	if err != nil {
		return nil, delta, err
	}
	delta = after.minus(before)
	writes := int(mix.acked.Load()) - 1 // without the set-up row
	m.put(perLayer, "qcache.invalidations_per_write", ratio(delta.invalidations, float64(writes)), writes)
	m.put(perLayer, "session.write_p50_ms", median(rec.other["insert"]), len(rec.other["insert"]))
	m.put(perLayer, "server.shed", delta.shed, 0)
	m.put(perLayer, "permclient.retries", float64(obs.ClientRetries.Load()-retries), 0)
	return rec, delta, serverProbes(m, rig, h, stmts[:len(stmts)/w.sets])
}

// serverProbes measures what the service adds on top of the engine: the
// round-trip floor, and loopback minus embedded latency for a one-row
// reply and for the widest reply of the draw.
func serverProbes(m metrics, rig *wireRig, h *perm.Database, stmts []stmt) error {
	c := rig.clients[0]
	var pings []float64
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		if err := c.Ping(); err != nil {
			return err
		}
		pings = append(pings, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m.put(perLayer, "server.rtt_floor_us", median(pings), len(pings))

	overhead := func(text string) (float64, error) {
		var over, in []float64
		for i := 0; i < 15; i++ {
			t0 := time.Now()
			if _, err := c.Query(text); err != nil {
				return 0, err
			}
			over = append(over, ms(time.Since(t0)))
			t0 = time.Now()
			if _, err := h.Query(text); err != nil {
				return 0, err
			}
			in = append(in, ms(time.Since(t0)))
		}
		return median(over) - median(in), nil
	}
	short, wide := stmts[0], stmts[0]
	for _, s := range stmts {
		if strings.HasPrefix(s.class, "Q6") && !s.prov {
			short = s
		}
		if strings.HasPrefix(s.class, "Q10") && s.prov {
			wide = s
		}
	}
	for name, s := range map[string]stmt{"server.wire_overhead_short_ms": short, "server.wire_overhead_wide_ms": wide} {
		v, err := overhead(s.sql)
		if err != nil {
			return fmt.Errorf("%s: %w", s.label(), err)
		}
		m.put(perLayer, name, v, 15)
	}
	return nil
}
