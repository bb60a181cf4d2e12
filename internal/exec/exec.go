// Package exec implements the physical operators of the Perm engine as
// volcano-style iterators: scans, filters, projections, nested-loop and
// hash joins (all outer-join flavours), hash aggregation (with DISTINCT
// aggregates), sorting, limits, duplicate elimination and bag/set
// operations. The planner (package plan) assembles these into trees.
package exec

import (
	"sort"
	"unsafe"

	"perm/internal/algebra"
	"perm/internal/eval"
	"perm/internal/obs"
	"perm/internal/spill"
	"perm/internal/types"
)

// Node is a volcano iterator. Next returns (nil, nil) at end of stream.
type Node interface {
	Open() error
	Next() (types.Row, error)
	Close() error
}

// Collect drains a node into a slice, handling Open/Close.
func Collect(n Node) ([]types.Row, error) {
	if err := n.Open(); err != nil {
		return nil, err
	}
	defer n.Close()
	var rows []types.Row
	for {
		r, err := n.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return rows, nil
		}
		rows = append(rows, r)
	}
}

// ---------------------------------------------------------------------------
// Scan

// Scan iterates over a materialized row slice (base-table snapshots and
// VALUES lists).
type Scan struct {
	obs.Card
	Rows []types.Row
	// Table names the relation this scan reads ("" for VALUES rows and
	// other anonymous sources). It is not rendered in EXPLAIN; the plan
	// hash folds it in so plans differing only in which equally-sized
	// relation sits where (e.g. a hash-join build-side swap) still hash
	// differently.
	Table string
	pos   int

	// aq, when set, is polled for cooperative cancellation once per
	// cancelStride rows — the row engine's equivalent of a batch
	// boundary.
	aq *obs.ActiveQuery
}

// cancelStride is how many rows a Scan emits between cancellation
// polls; matches the vectorized engine's batch granularity.
const cancelStride = 1024

// NewScan returns a scan over rows.
func NewScan(rows []types.Row) *Scan { return &Scan{Rows: rows} }

// SetActivity attaches the active-query record whose cancellation flag
// the scan polls (nil: never cancelled).
func (s *Scan) SetActivity(aq *obs.ActiveQuery) { s.aq = aq }

func (s *Scan) Open() error { s.pos = 0; return nil }

func (s *Scan) Next() (types.Row, error) {
	if s.pos >= len(s.Rows) {
		return nil, nil
	}
	if s.aq != nil && s.pos%cancelStride == 0 {
		if err := s.aq.CancelErr(); err != nil {
			return nil, err
		}
	}
	r := s.Rows[s.pos]
	s.pos++
	return r, nil
}

func (s *Scan) Close() error { return nil }

// ---------------------------------------------------------------------------
// Filter

// Filter emits input rows whose predicate evaluates to TRUE.
type Filter struct {
	obs.Card
	Input Node
	Pred  eval.Func
	ctx   eval.Ctx
}

// NewFilter returns a filter node.
func NewFilter(input Node, pred eval.Func) *Filter {
	return &Filter{Input: input, Pred: pred}
}

func (f *Filter) Open() error { return f.Input.Open() }

func (f *Filter) Next() (types.Row, error) {
	for {
		r, err := f.Input.Next()
		if err != nil || r == nil {
			return nil, err
		}
		f.ctx.Row = r
		v, err := f.Pred(&f.ctx)
		if err != nil {
			return nil, err
		}
		if v.IsTrue() {
			return r, nil
		}
	}
}

func (f *Filter) Close() error { return f.Input.Close() }

// ---------------------------------------------------------------------------
// Project

// Project computes output expressions over input rows.
type Project struct {
	obs.Card
	Input Node
	Exprs []eval.Func
	ctx   eval.Ctx
}

// NewProject returns a projection node.
func NewProject(input Node, exprs []eval.Func) *Project {
	return &Project{Input: input, Exprs: exprs}
}

func (p *Project) Open() error { return p.Input.Open() }

func (p *Project) Next() (types.Row, error) {
	r, err := p.Input.Next()
	if err != nil || r == nil {
		return nil, err
	}
	p.ctx.Row = r
	out := make(types.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e(&p.ctx)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (p *Project) Close() error { return p.Input.Close() }

// ---------------------------------------------------------------------------
// Joins

// NestedLoopJoin joins two inputs with an arbitrary condition. The right
// input is materialized at Open. Cond is evaluated over the concatenated
// row; a nil Cond means cross join.
type NestedLoopJoin struct {
	obs.Card
	Left, Right Node
	Cond        eval.Func
	Type        algebra.JoinKind // JoinInner, JoinLeft, JoinRight or JoinFull
	LeftKinds   []types.Kind     // for right/full outer padding
	RightKinds  []types.Kind     // for left/full outer padding

	rightRows    []types.Row
	rightMatched []bool
	cur          types.Row
	rightPos     int
	leftMatched  bool
	phase        int // 0 probing, 1 emitting unmatched right
	unmatchedPos int
	ctx          eval.Ctx
}

// NewNestedLoopJoin returns a nested-loop join node.
func NewNestedLoopJoin(left, right Node, cond eval.Func, jt algebra.JoinKind, leftKinds, rightKinds []types.Kind) *NestedLoopJoin {
	return &NestedLoopJoin{Left: left, Right: right, Cond: cond, Type: jt, LeftKinds: leftKinds, RightKinds: rightKinds}
}

func (j *NestedLoopJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	rows, err := Collect(j.Right)
	if err != nil {
		return err
	}
	j.rightRows = rows
	if j.Type == algebra.JoinRight || j.Type == algebra.JoinFull {
		j.rightMatched = make([]bool, len(rows))
	}
	j.cur = nil
	j.phase = 0
	j.unmatchedPos = 0
	return nil
}

func (j *NestedLoopJoin) Next() (types.Row, error) {
	for j.phase == 0 {
		if j.cur == nil {
			r, err := j.Left.Next()
			if err != nil {
				return nil, err
			}
			if r == nil {
				if j.Type == algebra.JoinRight || j.Type == algebra.JoinFull {
					j.phase = 1
					break
				}
				return nil, nil
			}
			j.cur = r
			j.rightPos = 0
			j.leftMatched = false
		}
		for j.rightPos < len(j.rightRows) {
			rr := j.rightRows[j.rightPos]
			idx := j.rightPos
			j.rightPos++
			combined := types.Concat(j.cur, rr)
			if j.Cond != nil {
				j.ctx.Row = combined
				v, err := j.Cond(&j.ctx)
				if err != nil {
					return nil, err
				}
				if !v.IsTrue() {
					continue
				}
			}
			j.leftMatched = true
			if j.rightMatched != nil {
				j.rightMatched[idx] = true
			}
			return combined, nil
		}
		// Left row exhausted against all right rows.
		done := j.cur
		matched := j.leftMatched
		j.cur = nil
		if !matched && (j.Type == algebra.JoinLeft || j.Type == algebra.JoinFull) {
			return types.Concat(done, types.NullRow(j.RightKinds)), nil
		}
	}
	// Phase 1: unmatched right rows for RIGHT/FULL joins.
	for j.unmatchedPos < len(j.rightRows) {
		idx := j.unmatchedPos
		j.unmatchedPos++
		if !j.rightMatched[idx] {
			return types.Concat(types.NullRow(j.LeftKinds), j.rightRows[idx]), nil
		}
	}
	return nil, nil
}

func (j *NestedLoopJoin) Close() error {
	err := j.Left.Close()
	j.rightRows = nil
	return err
}

// HashJoin is an equi-join on key expressions evaluated per side. NullSafe
// marks keys compared with IS NOT DISTINCT FROM semantics (NULL keys
// match), which the provenance rewriter's join-back conditions require.
// Residual is an extra condition over the concatenated row.
type HashJoin struct {
	obs.Card
	Left, Right Node
	LeftKeys    []eval.Func
	RightKeys   []eval.Func
	NullSafe    []bool
	Residual    eval.Func
	Type        algebra.JoinKind // JoinInner, JoinLeft, JoinRight or JoinFull
	LeftKinds   []types.Kind
	RightKinds  []types.Kind

	table        map[uint64][]*hashEntry
	entries      []*hashEntry
	cur          types.Row
	curKey       types.Row
	bucket       []*hashEntry
	bucketPos    int
	leftMatched  bool
	phase        int
	unmatchedPos int
	ctx          eval.Ctx
}

type hashEntry struct {
	key     types.Row
	row     types.Row
	matched bool
}

// NewHashJoin returns a hash join node; build side is the right input.
func NewHashJoin(left, right Node, leftKeys, rightKeys []eval.Func, nullSafe []bool,
	residual eval.Func, jt algebra.JoinKind, leftKinds, rightKinds []types.Kind) *HashJoin {
	return &HashJoin{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys, NullSafe: nullSafe,
		Residual: residual, Type: jt, LeftKinds: leftKinds, RightKinds: rightKinds,
	}
}

func (j *HashJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	rows, err := Collect(j.Right)
	if err != nil {
		return err
	}
	j.table = make(map[uint64][]*hashEntry, len(rows))
	j.entries = j.entries[:0]
	var ctx eval.Ctx
	for _, r := range rows {
		ctx.Row = r
		key := make(types.Row, len(j.RightKeys))
		for i, kf := range j.RightKeys {
			v, err := kf(&ctx)
			if err != nil {
				return err
			}
			key[i] = v
		}
		e := &hashEntry{key: key, row: r}
		h := key.Hash()
		j.table[h] = append(j.table[h], e)
		j.entries = append(j.entries, e)
	}
	j.cur = nil
	j.phase = 0
	j.unmatchedPos = 0
	return nil
}

// keyMatches checks per-key equality with per-key null-safety.
func (j *HashJoin) keyMatches(probe, build types.Row) bool {
	for i := range probe {
		if j.NullSafe[i] {
			if types.Distinct(probe[i], build[i]) {
				return false
			}
		} else {
			if !types.Equal(probe[i], build[i]) {
				return false
			}
		}
	}
	return true
}

func (j *HashJoin) Next() (types.Row, error) {
	for j.phase == 0 {
		if j.cur == nil {
			r, err := j.Left.Next()
			if err != nil {
				return nil, err
			}
			if r == nil {
				if j.Type == algebra.JoinRight || j.Type == algebra.JoinFull {
					j.phase = 1
					break
				}
				return nil, nil
			}
			j.cur = r
			j.leftMatched = false
			j.ctx.Row = r
			key := make(types.Row, len(j.LeftKeys))
			keyHasNull := false
			for i, kf := range j.LeftKeys {
				v, err := kf(&j.ctx)
				if err != nil {
					return nil, err
				}
				key[i] = v
				if v.Null && !j.NullSafe[i] {
					keyHasNull = true
				}
			}
			j.curKey = key
			if keyHasNull {
				j.bucket = nil // a non-null-safe NULL key matches nothing
			} else {
				j.bucket = j.table[key.Hash()]
			}
			j.bucketPos = 0
		}
		for j.bucketPos < len(j.bucket) {
			e := j.bucket[j.bucketPos]
			j.bucketPos++
			if !j.keyMatches(j.curKey, e.key) {
				continue
			}
			combined := types.Concat(j.cur, e.row)
			if j.Residual != nil {
				j.ctx.Row = combined
				v, err := j.Residual(&j.ctx)
				if err != nil {
					return nil, err
				}
				if !v.IsTrue() {
					continue
				}
			}
			j.leftMatched = true
			e.matched = true
			return combined, nil
		}
		done := j.cur
		matched := j.leftMatched
		j.cur = nil
		if !matched && (j.Type == algebra.JoinLeft || j.Type == algebra.JoinFull) {
			return types.Concat(done, types.NullRow(j.RightKinds)), nil
		}
	}
	for j.unmatchedPos < len(j.entries) {
		e := j.entries[j.unmatchedPos]
		j.unmatchedPos++
		if !e.matched {
			return types.Concat(types.NullRow(j.LeftKinds), e.row), nil
		}
	}
	return nil, nil
}

func (j *HashJoin) Close() error {
	err := j.Left.Close()
	j.table = nil
	j.entries = nil
	return err
}

// ---------------------------------------------------------------------------
// Aggregation

// AggSpec describes one aggregate to compute.
type AggSpec struct {
	Fn   algebra.AggFn
	Star bool      // COUNT(*): counts rows, Arg is nil
	Arg  eval.Func // nil for COUNT(*)
	// Distinct aggregates each distinct non-NULL argument value once.
	Distinct bool
	// ResultKind is the declared output kind (used for typed NULLs and to
	// keep integer sums integral).
	ResultKind types.Kind
}

// HashAgg groups input rows by the group expressions and computes
// aggregates per group. The output row is group values followed by
// aggregate results. With no group expressions the aggregate is global:
// exactly one output row, even for empty input.
type HashAgg struct {
	obs.Card
	Input  Node
	Groups []eval.Func
	Aggs   []AggSpec

	out []types.Row
	pos int
}

// NewHashAgg returns a hash aggregation node.
func NewHashAgg(input Node, groups []eval.Func, aggs []AggSpec) *HashAgg {
	return &HashAgg{Input: input, Groups: groups, Aggs: aggs}
}

type aggState struct {
	count  int64
	sumI   int64
	sumF   float64
	sawany bool
	mmSet  bool // min/max initialized
	min    types.Value
	max    types.Value
	seen   map[uint64][]types.Value // distinct values
}

type aggGroup struct {
	key    types.Row
	states []aggState
}

func (a *HashAgg) Open() error {
	if err := a.Input.Open(); err != nil {
		return err
	}
	defer a.Input.Close()
	groups := make(map[uint64][]*aggGroup)
	var order []*aggGroup
	var ctx eval.Ctx
	for {
		r, err := a.Input.Next()
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		ctx.Row = r
		key := make(types.Row, len(a.Groups))
		for i, g := range a.Groups {
			v, err := g(&ctx)
			if err != nil {
				return err
			}
			key[i] = v
		}
		h := key.Hash()
		var grp *aggGroup
		for _, g := range groups[h] {
			if g.key.EqualNullSafe(key) {
				grp = g
				break
			}
		}
		if grp == nil {
			grp = &aggGroup{key: key, states: make([]aggState, len(a.Aggs))}
			for i := range grp.states {
				if a.Aggs[i].Distinct {
					grp.states[i].seen = make(map[uint64][]types.Value)
				}
			}
			groups[h] = append(groups[h], grp)
			order = append(order, grp)
		}
		for i := range a.Aggs {
			if err := accumulate(&grp.states[i], &a.Aggs[i], &ctx); err != nil {
				return err
			}
		}
	}
	// Global aggregate over empty input: one row of defaults.
	if len(order) == 0 && len(a.Groups) == 0 {
		grp := &aggGroup{states: make([]aggState, len(a.Aggs))}
		order = append(order, grp)
	}
	a.out = a.out[:0]
	for _, grp := range order {
		row := make(types.Row, 0, len(grp.key)+len(a.Aggs))
		row = append(row, grp.key...)
		for i := range a.Aggs {
			row = append(row, finalize(&grp.states[i], &a.Aggs[i]))
		}
		a.out = append(a.out, row)
	}
	a.pos = 0
	return nil
}

func accumulate(st *aggState, spec *AggSpec, ctx *eval.Ctx) error {
	if spec.Star {
		st.count++
		return nil
	}
	v, err := spec.Arg(ctx)
	if err != nil {
		return err
	}
	if v.Null {
		return nil
	}
	if spec.Distinct {
		h := v.Hash()
		for _, seen := range st.seen[h] {
			if !types.Distinct(seen, v) {
				return nil
			}
		}
		st.seen[h] = append(st.seen[h], v)
	}
	st.sawany = true
	switch spec.Fn {
	case algebra.AggCount:
		st.count++
	case algebra.AggSum, algebra.AggAvg:
		st.count++
		if v.K == types.KindInt {
			st.sumI += v.I
			st.sumF += float64(v.I)
		} else {
			st.sumF += v.AsFloat()
		}
	case algebra.AggMin:
		if !st.mmSet || types.Compare(v, st.min) < 0 {
			st.min = v
			st.mmSet = true
		}
	case algebra.AggMax:
		if !st.mmSet || types.Compare(v, st.max) > 0 {
			st.max = v
			st.mmSet = true
		}
	}
	return nil
}

func finalize(st *aggState, spec *AggSpec) types.Value {
	switch spec.Fn {
	case algebra.AggCount:
		return types.NewInt(st.count)
	case algebra.AggSum:
		if !st.sawany {
			return types.NewNull(spec.ResultKind)
		}
		if spec.ResultKind == types.KindInt {
			return types.NewInt(st.sumI)
		}
		return types.NewFloat(st.sumF)
	case algebra.AggAvg:
		if !st.sawany || st.count == 0 {
			return types.NewNull(types.KindFloat)
		}
		return types.NewFloat(st.sumF / float64(st.count))
	case algebra.AggMin:
		if !st.sawany {
			return types.NewNull(spec.ResultKind)
		}
		return st.min
	case algebra.AggMax:
		if !st.sawany {
			return types.NewNull(spec.ResultKind)
		}
		return st.max
	default:
		return types.NullValue
	}
}

func (a *HashAgg) Next() (types.Row, error) {
	if a.pos >= len(a.out) {
		return nil, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, nil
}

func (a *HashAgg) Close() error {
	a.out = nil
	return nil
}

// ---------------------------------------------------------------------------
// Sort / Limit / Distinct

// Sort materializes and orders its input. NULLs sort last ascending,
// first descending (PostgreSQL default). Under a memory budget (Spill)
// it becomes an external merge sort over row-encoded spill runs; the
// merged order is identical to the in-memory stable sort's because runs
// hold consecutive input segments and ties resolve to the earlier run.
type Sort struct {
	obs.Card
	Input Node
	Keys  []algebra.SortKey
	Spill spill.Resources

	rows     []types.Row
	pos      int
	accBytes int64
	pending  int64
	runs     []*spill.RowRun
	merger   *rowRunMerger
}

// NewSort returns a sort node.
func NewSort(input Node, keys []algebra.SortKey) *Sort { return &Sort{Input: input, Keys: keys} }

// Spilled reports whether the sort went external.
func (s *Sort) Spilled() bool { return len(s.runs) > 0 }

// sortGrowQuantum batches the reservation's atomic traffic: the sort
// asks for memory in chunks of this size rather than per row.
const sortGrowQuantum = 16 << 10

// rowBytes estimates the heap footprint of one boxed row.
func rowBytes(r types.Row) int64 {
	n := int64(24) + int64(unsafe.Sizeof(types.Value{}))*int64(len(r))
	for _, v := range r {
		n += int64(len(v.Str()))
	}
	return n
}

func (s *Sort) sortRows() {
	sort.SliceStable(s.rows, func(i, j int) bool {
		for _, k := range s.Keys {
			c := compareForSort(s.rows[i][k.Pos], s.rows[j][k.Pos])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// flushRun sorts the accumulated segment, writes it as one run and
// releases its memory.
func (s *Sort) flushRun() error {
	if len(s.rows) == 0 {
		return nil
	}
	s.sortRows()
	rows := s.rows
	run, err := s.writeRun(func() (types.Row, error) {
		if len(rows) == 0 {
			return nil, nil
		}
		r := rows[0]
		rows = rows[1:]
		return r, nil
	})
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.rows = nil
	s.Spill.Res.Release(s.accBytes)
	s.accBytes = 0
	return nil
}

func (s *Sort) Open() (err error) {
	s.rows, s.pos = nil, 0
	s.accBytes, s.pending = 0, 0
	s.merger = nil
	s.closeRuns()
	// A failed Open never sees a matching Close from the parent: unwind
	// the spill state here (reserved bytes, written runs).
	defer func() {
		if err != nil {
			s.closeRuns()
			s.rows = nil
			s.accBytes, s.pending = 0, 0
			s.Spill.Res.ReleaseAll()
		}
	}()
	if err := s.Input.Open(); err != nil {
		return err
	}
	budgeted := s.Spill.Enabled()
	for {
		r, err := s.Input.Next()
		if err != nil {
			s.Input.Close() //nolint:errcheck — unwinding after a failed drain
			return err
		}
		if r == nil {
			break
		}
		s.rows = append(s.rows, r)
		if budgeted {
			s.pending += rowBytes(r)
			if s.pending >= sortGrowQuantum {
				if !s.Spill.Res.Grow(s.pending) {
					if err := s.flushRun(); err != nil {
						s.Input.Close() //nolint:errcheck
						return err
					}
					s.Spill.Res.Force(s.pending)
				}
				s.accBytes += s.pending
				s.pending = 0
			}
		}
	}
	if err := s.Input.Close(); err != nil {
		return err
	}
	if s.pending > 0 {
		s.Spill.Res.Force(s.pending)
		s.accBytes += s.pending
		s.pending = 0
	}
	if len(s.runs) == 0 {
		s.sortRows()
		return nil
	}
	if err := s.flushRun(); err != nil {
		return err
	}
	s.runs, err = spill.Reduce(s.runs, func(group []*spill.RowRun) (*spill.RowRun, error) {
		m, err := newRowRunMerger(group, s.Keys)
		if err != nil {
			return nil, err
		}
		return s.writeRun(m.next)
	})
	if err != nil {
		return err
	}
	s.merger, err = newRowRunMerger(s.runs, s.Keys)
	return err
}

// compareForSort orders values treating NULL as greater than everything
// (NULLS LAST ascending).
func compareForSort(a, b types.Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return 1
	case b.Null:
		return -1
	default:
		return types.Compare(a, b)
	}
}

func (s *Sort) Next() (types.Row, error) {
	if s.merger != nil {
		return s.merger.next()
	}
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

func (s *Sort) closeRuns() {
	for _, r := range s.runs {
		r.Close() //nolint:errcheck — temp storage, already unlinked
	}
	s.runs = nil
}

func (s *Sort) Close() error {
	s.rows = nil
	s.merger = nil
	s.closeRuns()
	s.accBytes, s.pending = 0, 0
	s.Spill.Res.ReleaseAll()
	return nil
}

// writeRun writes the rows next yields, until it yields nil, to a new
// run and notes the run's bytes as spilled. On error the run is closed.
func (s *Sort) writeRun(next func() (types.Row, error)) (*spill.RowRun, error) {
	run, err := spill.NewRowRun(s.Spill.Dir)
	if err != nil {
		return nil, err
	}
	for {
		r, err := next()
		if err == nil && r == nil {
			break
		}
		if err == nil {
			err = run.WriteRow(r)
		}
		if err != nil {
			run.Close() //nolint:errcheck — unwinding a failed run
			return nil, err
		}
	}
	if err := run.Finish(); err != nil {
		run.Close() //nolint:errcheck
		return nil, err
	}
	s.Spill.Res.NoteSpill(run.Bytes())
	return run, nil
}

// rowRunMerger is a k-way streaming merge over sorted row runs; ties
// resolve to the lower run index (stability across segments).
type rowRunMerger struct {
	runs []*spill.RowRun
	cur  []types.Row // current head row per run, nil = exhausted
	keys []algebra.SortKey
	heap []int
}

func newRowRunMerger(runs []*spill.RowRun, keys []algebra.SortKey) (*rowRunMerger, error) {
	m := &rowRunMerger{runs: runs, cur: make([]types.Row, len(runs)), keys: keys}
	for i, r := range runs {
		row, err := r.ReadRow()
		if err != nil {
			return nil, err
		}
		m.cur[i] = row
		if row != nil {
			m.heap = append(m.heap, i)
		}
	}
	spill.Heapify(m.heap, m.less)
	return m, nil
}

func (m *rowRunMerger) less(a, b int) bool {
	for _, k := range m.keys {
		c := compareForSort(m.cur[a][k.Pos], m.cur[b][k.Pos])
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return a < b
}

func (m *rowRunMerger) next() (types.Row, error) {
	if len(m.heap) == 0 {
		return nil, nil
	}
	ri := m.heap[0]
	out := m.cur[ri]
	row, err := m.runs[ri].ReadRow()
	if err != nil {
		return nil, err
	}
	m.cur[ri] = row
	if row == nil {
		m.heap[0] = m.heap[len(m.heap)-1]
		m.heap = m.heap[:len(m.heap)-1]
	}
	spill.DownHeap(m.heap, 0, m.less)
	return out, nil
}

// Limit emits at most Count rows after skipping Offset rows. A negative
// Count means no limit.
type Limit struct {
	obs.Card
	Input   Node
	Count   int64
	Offset  int64
	emitted int64
	skipped int64
}

// NewLimit returns a limit node.
func NewLimit(input Node, count, offset int64) *Limit {
	return &Limit{Input: input, Count: count, Offset: offset}
}

func (l *Limit) Open() error {
	l.emitted, l.skipped = 0, 0
	return l.Input.Open()
}

func (l *Limit) Next() (types.Row, error) {
	for l.skipped < l.Offset {
		r, err := l.Input.Next()
		if err != nil || r == nil {
			return nil, err
		}
		l.skipped++
	}
	if l.Count >= 0 && l.emitted >= l.Count {
		return nil, nil
	}
	r, err := l.Input.Next()
	if err != nil || r == nil {
		return nil, err
	}
	l.emitted++
	return r, nil
}

func (l *Limit) Close() error { return l.Input.Close() }

// Distinct removes duplicate rows (null-safe row equality).
type Distinct struct {
	obs.Card
	Input Node
	seen  map[uint64][]types.Row
}

// NewDistinct returns a duplicate-elimination node.
func NewDistinct(input Node) *Distinct { return &Distinct{Input: input} }

func (d *Distinct) Open() error {
	d.seen = make(map[uint64][]types.Row)
	return d.Input.Open()
}

func (d *Distinct) Next() (types.Row, error) {
	for {
		r, err := d.Input.Next()
		if err != nil || r == nil {
			return nil, err
		}
		h := r.Hash()
		dup := false
		for _, prev := range d.seen[h] {
			if prev.EqualNullSafe(r) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		d.seen[h] = append(d.seen[h], r)
		return r, nil
	}
}

func (d *Distinct) Close() error {
	d.seen = nil
	return d.Input.Close()
}

// ---------------------------------------------------------------------------
// Set operations

// SetOp computes a bag or set operation over two inputs, implementing the
// multiset semantics of the paper's Fig. 1: UNION ALL adds multiplicities,
// INTERSECT ALL takes the minimum, EXCEPT ALL subtracts; the set variants
// apply DISTINCT projection to the multiset result.
type SetOp struct {
	obs.Card
	Left, Right Node
	Kind        algebra.SetOpKind
	All         bool

	out []types.Row
	pos int
}

// NewSetOp returns a set operation node.
func NewSetOp(left, right Node, kind algebra.SetOpKind, all bool) *SetOp {
	return &SetOp{Left: left, Right: right, Kind: kind, All: all}
}

type setOpEntry struct {
	row  types.Row
	n, m int64 // multiplicities in left and right input
}

func (s *SetOp) Open() error {
	leftRows, err := Collect(s.Left)
	if err != nil {
		return err
	}
	rightRows, err := Collect(s.Right)
	if err != nil {
		return err
	}
	if s.Kind == algebra.SetUnion && s.All {
		s.out = append(append([]types.Row{}, leftRows...), rightRows...)
		s.pos = 0
		return nil
	}
	table := make(map[uint64][]*setOpEntry)
	var order []*setOpEntry
	add := func(r types.Row, left bool) {
		h := r.Hash()
		var e *setOpEntry
		for _, cand := range table[h] {
			if cand.row.EqualNullSafe(r) {
				e = cand
				break
			}
		}
		if e == nil {
			e = &setOpEntry{row: r}
			table[h] = append(table[h], e)
			order = append(order, e)
		}
		if left {
			e.n++
		} else {
			e.m++
		}
	}
	for _, r := range leftRows {
		add(r, true)
	}
	for _, r := range rightRows {
		add(r, false)
	}
	s.out = s.out[:0]
	for _, e := range order {
		var count int64
		switch s.Kind {
		case algebra.SetUnion:
			// set semantics: distinct union
			if e.n+e.m > 0 {
				count = 1
			}
		case algebra.SetIntersect:
			count = minInt64(e.n, e.m)
			if !s.All && count > 0 {
				count = 1
			}
		case algebra.SetExcept:
			if s.All {
				count = e.n - e.m
			} else if e.n > 0 && e.m == 0 {
				count = 1
			}
		}
		for i := int64(0); i < count; i++ {
			s.out = append(s.out, e.row)
		}
	}
	s.pos = 0
	return nil
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (s *SetOp) Next() (types.Row, error) {
	if s.pos >= len(s.out) {
		return nil, nil
	}
	r := s.out[s.pos]
	s.pos++
	return r, nil
}

func (s *SetOp) Close() error {
	s.out = nil
	return nil
}
