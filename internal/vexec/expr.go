// Vectorized expression compilation. An analyzed expression compiles to a
// tree of kernel nodes of two kinds:
//
//   - value kernels compute a result vector over the lanes of a selection
//     (arithmetic, CASE, column references, constants, uncorrelated
//     scalar/EXISTS sublinks evaluated once and broadcast);
//   - select kernels narrow a selection to the lanes on which a boolean
//     expression is TRUE — or, asked the other way, FALSE; NULL lanes are
//     in neither answer. Comparisons, ranges, LIKE, IS NULL and IS
//     DISTINCT FROM write the surviving lanes straight into a selection
//     buffer through the typed loops of selkernels.go; AND narrows
//     successively, OR unions over the complement, NOT swaps the question.
//     A filter therefore materializes no boolean vector and broadcasts no
//     constant. Where a boolean is needed as a value (a projected
//     comparison, a grouping key) it is assembled from the two answers.
//
// The right operand of AND/OR only ever sees lanes the left operand left
// open, so a division guarded by an AND never runs on the guarded-out
// lanes. A select kernel asks its right operand for less than the row
// engine evaluates: lanes on which the left operand is NULL cannot make an
// AND true and are not passed on.
//
// Anything else (casts, function calls, quantified sublinks, interval
// arithmetic, untyped NULLs outside CASE arms) returns an error and the
// planner falls back to the row engine for that plan subtree.
//
// Result-vector ownership: value kernels allocate their outputs from the
// shared batch-buffer pool (vector.NewBatchVec) and free the
// intermediates they consumed. Var, Const and SubLink results are
// aliasing — they reference batch columns or caches shared across calls —
// and are never freed; Expr.FreeResult encapsulates the distinction for
// operators. Selections returned by select kernels alias either the
// selection passed in or scratch owned by the kernel node, valid until
// that node's next call; a nil result (only possible for a nil input)
// means every row of the batch. Scratch is allocated on a node's first
// call and reused, so replicas of a plan never share any.
package vexec

import (
	"fmt"
	"strings"

	"perm/internal/algebra"
	"perm/internal/types"
	"perm/internal/vector"
)

// valueKernel evaluates an expression over the physical batch rows listed
// in sel (nil = all rows 0..b.N-1). The result vector is defined at
// exactly those positions; other lanes hold unspecified values.
type valueKernel interface {
	eval(b *vector.Batch, sel []int) (*vector.Vec, error)
}

// selKernel returns, in increasing order, the lanes of sel on which a
// boolean expression is TRUE (want) or FALSE (!want).
type selKernel interface {
	sel(b *vector.Batch, sel []int, want bool) ([]int, error)
}

// Expr is a compiled vectorized expression with its static result kind.
type Expr struct {
	kind types.Kind
	// aliasing marks expressions whose result vector is shared (a batch
	// column, a constant cache, a sublink broadcast) rather than freshly
	// allocated per evaluation. Consumers must not free aliasing results.
	aliasing bool
	// isConst marks a compile-time constant, cv its value: kernels take it
	// as a scalar operand instead of evaluating a broadcast.
	isConst bool
	cv      types.Value
	// val computes the expression as a vector; nil for boolean expressions
	// compiled to a select kernel, whose vector form is assembled from
	// pred's two answers. pred is created on demand for boolean values.
	val  valueKernel
	pred selKernel
}

// Kind returns the static result kind of the expression.
func (e *Expr) Kind() types.Kind { return e.kind }

// FreeResult returns an evaluation result to the batch-buffer pool, if
// this expression owns its results. Callers invoke it once they are done
// reading the vector (and never after placing it in an emitted batch).
func (e *Expr) FreeResult(v *vector.Vec) {
	if !e.aliasing {
		v.Free()
	}
}

func (e *Expr) eval(b *vector.Batch, sel []int) (*vector.Vec, error) {
	if e.val != nil {
		return e.val.eval(b, sel)
	}
	return boolFromSel(e.pred, b, sel)
}

// selector returns the select kernel of a boolean expression.
func (e *Expr) selector() selKernel {
	if e.pred == nil {
		e.pred = &boolVecSel{e: e}
	}
	return e.pred
}

// selectTrue narrows sel to the lanes on which the boolean expression is
// TRUE: the form filters, join conditions and CASE arms consume.
func (e *Expr) selectTrue(b *vector.Batch, sel []int) ([]int, error) {
	return e.selector().sel(b, sel, true)
}

// boolFromSel assembles the three-valued vector of a predicate from its
// TRUE and FALSE answers; the lanes in neither are NULL.
func boolFromSel(p selKernel, b *vector.Batch, sel []int) (*vector.Vec, error) {
	lanes := resolveSel(b, sel)
	t, err := p.sel(b, lanes, true)
	if err != nil {
		return nil, err
	}
	out := vector.NewBatchVec(types.KindBool, b.N)
	for _, i := range lanes {
		out.B[i] = false
	}
	for _, i := range t {
		out.B[i] = true
	}
	decided := len(t) // t's storage is the kernel's again once it is asked anew
	f, err := p.sel(b, lanes, false)
	if err != nil {
		out.Free()
		return nil, err
	}
	if decided+len(f) < len(lanes) {
		for _, i := range lanes {
			if !out.B[i] {
				out.Nulls.Set(i)
			}
		}
		for _, i := range f {
			out.Nulls.Clear(i)
		}
	}
	return out, nil
}

var errUnsupported = fmt.Errorf("vexec: expression shape not vectorizable")

// identitySel is the shared all-rows selection 0..BatchSize-1 (read-only).
var identitySel = vector.Lanes(vector.BatchSize)

// clearNulls is the shared null bitmap of a column that has none, covering
// BatchSize rows (read-only): the row-id column of a scan.
var clearNulls = vector.NewBitmap(vector.BatchSize)

// resolveSel turns a nil selection into an explicit one. Batches never
// exceed BatchSize rows, so the shared identity prefix always suffices.
func resolveSel(b *vector.Batch, sel []int) []int {
	if sel != nil {
		return sel
	}
	return identitySel[:b.N]
}

// CompileExpr compiles an analyzed expression for vectorized evaluation.
// An error means the shape is not supported and the caller must stay on
// the row engine. The binder resolves column references to flat batch
// positions and sublinks to their (lazily materialized) subplans.
func CompileExpr(e algebra.Expr, bind algebra.Binder) (*Expr, error) {
	switch n := e.(type) {
	case *algebra.Var:
		return compileVar(n, bind)
	case *algebra.Const:
		return compileConst(n.Val)
	case *algebra.BinOp:
		return compileBinOp(n, bind)
	case *algebra.UnOp:
		return compileUnOp(n, bind)
	case *algebra.IsNull:
		return compileIsNull(n, bind)
	case *algebra.DistinctFrom:
		return compileDistinctFrom(n, bind)
	case *algebra.CaseExpr:
		return compileCase(n, bind)
	case *algebra.SubLink:
		return compileSubLink(n, bind)
	default:
		return nil, errUnsupported
	}
}

// compiles reports whether the batch engine can evaluate e, an aggregate
// in it standing for its result over compilable arguments, as the
// aggregation would compute it. Columns and sublinks bind to anything.
func compiles(e algebra.Expr) bool {
	ok := true
	e = algebra.MapExpr(e, func(x algebra.Expr) algebra.Expr {
		if ar, isAgg := x.(*algebra.AggRef); isAgg {
			ok = ok && !ar.Distinct && (ar.Arg == nil || compiles(ar.Arg))
			return &algebra.Var{Typ: ar.Typ}
		}
		return x
	})
	if _, err := CompileExpr(e, anyBinder{}); e != nil && err != nil {
		return false
	}
	return ok
}

// Batchable reports whether the batch engine can run the blocks of
// queries: every expression compiles for it and no join is a right or
// full outer join, which only the row engine executes.
func Batchable(queries ...*algebra.Query) bool {
	ok := true
	var joins func(algebra.FromItem)
	joins = func(fi algebra.FromItem) {
		if j, isJoin := fi.(*algebra.FromJoin); isJoin {
			ok = ok && j.Kind != algebra.JoinRight && j.Kind != algebra.JoinFull
			joins(j.Left)
			joins(j.Right)
		}
	}
	for _, q := range queries {
		q.VisitExprs(func(e algebra.Expr) { ok = ok && compiles(e) })
		for _, fi := range q.From {
			joins(fi)
		}
	}
	return ok
}

type anyBinder struct{}

func (anyBinder) BindVar(*algebra.Var) (int, error)                          { return 0, nil }
func (anyBinder) BindSubLink(*algebra.SubLink) (algebra.SubLinkValue, error) { return nil, nil }

// CompileExprs compiles a slice of expressions; it fails if any one of
// them is unsupported.
func CompileExprs(es []algebra.Expr, bind algebra.Binder) ([]*Expr, error) {
	out := make([]*Expr, len(es))
	for i, e := range es {
		c, err := CompileExpr(e, bind)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// compileBool compiles an operand that must be boolean.
func compileBool(e algebra.Expr, bind algebra.Binder) (*Expr, error) {
	c, err := CompileExpr(e, bind)
	if err != nil {
		return nil, err
	}
	if c.kind != types.KindBool {
		return nil, errUnsupported
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Leaves: column references, constants, sublinks

type varKernel struct{ pos int }

func (k *varKernel) eval(b *vector.Batch, sel []int) (*vector.Vec, error) {
	if k.pos >= len(b.Cols) {
		return nil, fmt.Errorf("vexec: batch too narrow (%d <= %d)", len(b.Cols), k.pos)
	}
	return b.Cols[k.pos], nil
}

func compileVar(n *algebra.Var, bind algebra.Binder) (*Expr, error) {
	if !vector.Supported(n.Typ) {
		return nil, errUnsupported
	}
	pos, err := bind.BindVar(n)
	if err != nil {
		return nil, err
	}
	return &Expr{kind: n.Typ, aliasing: true, val: &varKernel{pos: pos}}, nil
}

// constKernel is a constant in value position (a projected literal, an
// aggregate argument): a broadcast cached across batches. Kernels with a
// scalar form read Expr.cv instead and never evaluate it.
type constKernel struct {
	val   types.Value
	cache *vector.Vec
}

func (k *constKernel) eval(b *vector.Batch, sel []int) (*vector.Vec, error) {
	if k.cache == nil || k.cache.Len() < b.N {
		k.cache = broadcast(k.val, k.val.K, b.N)
	}
	return k.cache, nil
}

func compileConst(val types.Value) (*Expr, error) {
	if !vector.Supported(val.K) {
		return nil, errUnsupported
	}
	return &Expr{kind: val.K, aliasing: true, isConst: true, cv: val, val: &constKernel{val: val}}, nil
}

// foldedConst compiles a constant-only arithmetic subtree to its value.
func foldedConst(e algebra.Expr, typ types.Kind) (*Expr, bool) {
	if v, ok := algebra.FoldConst(e); ok && vector.Supported(v.K) && v.K == typ {
		c, err := compileConst(v)
		return c, err == nil
	}
	return nil, false
}

// subLinkKernel vectorizes uncorrelated scalar and EXISTS sublinks: the
// subplan is materialized once (lazily, by the row engine's sublink
// runtime) and the resulting value broadcast to a cached vector, so
// provenance queries whose only non-columnar expression is an
// uncorrelated sublink (TPC-H Q15's max-revenue filter) stay on the
// batch engine. Quantified (ANY/ALL) sublinks fall back.
type subLinkKernel struct {
	slv    algebra.SubLinkValue
	kind   types.Kind
	exists bool
	cache  *vector.Vec
}

func (k *subLinkKernel) eval(b *vector.Batch, sel []int) (*vector.Vec, error) {
	if k.cache == nil || k.cache.Len() < b.N {
		var val types.Value
		if k.exists {
			ok, err := k.slv.Exists()
			if err != nil {
				return nil, err
			}
			val = types.NewBool(ok)
		} else {
			v, err := k.slv.Scalar()
			if err != nil {
				return nil, err
			}
			val = v
		}
		k.cache = broadcast(val, k.kind, b.N)
	}
	return k.cache, nil
}

func compileSubLink(n *algebra.SubLink, bind algebra.Binder) (*Expr, error) {
	kind := n.Typ
	if n.Kind == algebra.SubExists {
		kind = types.KindBool
	}
	if n.Kind != algebra.SubScalar && n.Kind != algebra.SubExists {
		return nil, errUnsupported
	}
	if !vector.Supported(kind) {
		return nil, errUnsupported
	}
	slv, err := bind.BindSubLink(n)
	if err != nil {
		return nil, err
	}
	k := &subLinkKernel{slv: slv, kind: kind, exists: n.Kind == algebra.SubExists}
	return &Expr{kind: kind, aliasing: true, val: k}, nil
}

// broadcast fills a fresh (unpooled: it is cached across batches) vector
// of n copies of val, declared as kind (numeric values coerce).
func broadcast(val types.Value, kind types.Kind, n int) *vector.Vec {
	v := vector.NewVec(kind, n)
	if val.Null {
		for w := range v.Nulls {
			v.Nulls[w] = ^uint64(0)
		}
		return v
	}
	if kind == types.KindInt && val.K == types.KindFloat {
		val = types.NewInt(int64(val.F()))
	}
	fill(v, val, identitySel[:n])
	return v
}

// numAt reads a numeric lane as float64 (operand kind is int or float).
func numAt(v *vector.Vec, i int) float64 {
	if v.Kind == types.KindFloat {
		return v.F[i]
	}
	return float64(v.I[i])
}

// floatLanes returns the listed lanes of a numeric vector as float64: the
// payload itself, or a pooled widening of int lanes the caller frees
// (Free is a no-op on nil).
func floatLanes(v *vector.Vec, lanes []int, n int) ([]float64, *vector.Vec) {
	if v.Kind == types.KindFloat {
		return v.F, nil
	}
	tmp := vector.NewBatchVec(types.KindFloat, n)
	intToFloat(tmp.F, v.I, lanes)
	return tmp.F, tmp
}

// ---------------------------------------------------------------------------
// Comparisons

// cmpOp encodes a comparison operator.
type cmpOp uint8

const (
	cmpEQ cmpOp = iota
	cmpNE
	cmpLT
	cmpLE
	cmpGT
	cmpGE
)

func cmpOpOf(op string) (cmpOp, bool) {
	switch op {
	case "=":
		return cmpEQ, true
	case "<>":
		return cmpNE, true
	case "<":
		return cmpLT, true
	case "<=":
		return cmpLE, true
	case ">":
		return cmpGT, true
	case ">=":
		return cmpGE, true
	default:
		return 0, false
	}
}

// negated[op] holds exactly where op does not (on non-NULL lanes);
// flipped[op] is op with its operands exchanged.
var (
	negated = [...]cmpOp{cmpEQ: cmpNE, cmpNE: cmpEQ, cmpLT: cmpGE, cmpLE: cmpGT, cmpGT: cmpLE, cmpGE: cmpLT}
	flipped = [...]cmpOp{cmpEQ: cmpEQ, cmpNE: cmpNE, cmpLT: cmpGT, cmpLE: cmpGE, cmpGT: cmpLT, cmpGE: cmpLE}
)

// cmpClass describes how two operand kinds compare lane-wise.
type cmpClass uint8

const (
	classNone  cmpClass = iota
	classInt            // both int, or both date (compare I)
	classFloat          // numeric pair with at least one float
	classString
	classBool
)

func classify(a, b types.Kind) cmpClass {
	switch {
	case a == types.KindInt && b == types.KindInt,
		a == types.KindDate && b == types.KindDate:
		return classInt
	case a.Numeric() && b.Numeric():
		return classFloat
	case a == types.KindString && b == types.KindString:
		return classString
	case a == types.KindBool && b == types.KindBool:
		return classBool
	default:
		return classNone
	}
}

// laneCompare orders two non-NULL lanes of a classified kind pair (the
// sort comparator and the hash tables' key verification; batch
// comparisons run the select kernels).
func laneCompare(class cmpClass, l *vector.Vec, li int, r *vector.Vec, ri int) int {
	switch class {
	case classInt:
		a, b := l.I[li], r.I[ri]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case classFloat:
		a, b := numAt(l, li), numAt(r, ri)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case classString:
		return strings.Compare(l.S[li], r.S[ri])
	default: // classBool
		a, b := l.B[li], r.B[ri]
		switch {
		case a == b:
			return 0
		case b:
			return -1
		}
		return 1
	}
}

// scalar is a constant operand coerced to a comparison class: I for the
// int class (and booleans, as 0/1), F for the float class, S for strings.
type scalar struct {
	null bool
	i    int64
	f    float64
	s    string
}

func scalarOf(v types.Value, class cmpClass) scalar {
	if v.Null {
		return scalar{null: true}
	}
	switch class {
	case classFloat:
		return scalar{f: v.AsFloat()}
	case classString:
		return scalar{s: v.Str()}
	case classBool:
		if v.B {
			return scalar{i: 1}
		}
		return scalar{}
	default:
		return scalar{i: v.I}
	}
}

// cmpSel selects on l op r; r is nil when the right operand is the
// constant c (a constant left operand is moved there, flipping op).
type cmpSel struct {
	l, r    *Expr
	class   cmpClass
	op      cmpOp
	c       scalar
	out, nn []int
}

func (c *cmpSel) sel(b *vector.Batch, s []int, want bool) ([]int, error) {
	op := c.op
	if !want {
		op = negated[op]
	}
	if c.r == nil && c.c.null {
		return selScratch(&c.out, 0), nil // comparing with NULL decides no lane
	}
	lanes := resolveSel(b, s)
	lv, err := c.l.eval(b, lanes)
	if err != nil {
		return nil, err
	}
	defer c.l.FreeResult(lv)
	var rv *vector.Vec
	if c.r != nil {
		if rv, err = c.r.eval(b, lanes); err != nil {
			return nil, err
		}
		defer c.r.FreeResult(rv)
	}
	return c.compare(op, lv, rv, lanes, b.N), nil
}

// compare selects the lanes where lv op rv (rv nil: the constant) holds;
// a NULL on either side decides nothing. The typed loop is chosen here,
// once per batch.
func (c *cmpSel) compare(op cmpOp, lv, rv *vector.Vec, lanes []int, n int) []int {
	if lv.Nulls.AnySet(n) || (rv != nil && rv.Nulls.AnySet(n)) {
		var rn vector.Bitmap
		if rv != nil {
			rn = rv.Nulls
		}
		lanes = selBothNotNull(lv.Nulls, rn, lanes, selScratch(&c.nn, len(lanes)))
	}
	out := selScratch(&c.out, len(lanes))
	switch c.class {
	case classInt:
		if rv == nil {
			return selCmpVC(op, lv.I, c.c.i, lanes, out)
		}
		return selCmpVV(op, lv.I, rv.I, lanes, out)
	case classString:
		if rv == nil {
			return selCmpVC(op, lv.S, c.c.s, lanes, out)
		}
		return selCmpVV(op, lv.S, rv.S, lanes, out)
	case classFloat:
		lf, ltmp := floatLanes(lv, lanes, n)
		defer ltmp.Free()
		eq := op == cmpEQ || op == cmpNE
		if rv == nil {
			if eq {
				return selEqFloatVC(op == cmpNE, lf, c.c.f, lanes, out)
			}
			return selCmpVC(op, lf, c.c.f, lanes, out)
		}
		rf, rtmp := floatLanes(rv, lanes, n)
		defer rtmp.Free()
		if eq {
			return selEqFloatVV(op == cmpNE, lf, rf, lanes, out)
		}
		return selCmpVV(op, lf, rf, lanes, out)
	default: // classBool: false < true, on the int kernels
		li := vector.NewBatchVec(types.KindInt, n)
		defer li.Free()
		boolToInt(li.I, lv.B, lanes)
		if rv == nil {
			return selCmpVC(op, li.I, c.c.i, lanes, out)
		}
		ri := vector.NewBatchVec(types.KindInt, n)
		defer ri.Free()
		boolToInt(ri.I, rv.B, lanes)
		return selCmpVV(op, li.I, ri.I, lanes, out)
	}
}

func compileCompare(n *algebra.BinOp, l, r *Expr) (*Expr, error) {
	op, ok := cmpOpOf(n.Op)
	class := classify(l.kind, r.kind)
	if !ok || n.Typ != types.KindBool || class == classNone {
		return nil, errUnsupported
	}
	if l.isConst && !r.isConst {
		l, r, op = r, l, flipped[op]
	}
	k := &cmpSel{l: l, r: r, class: class, op: op}
	if r.isConst {
		k.r, k.c = nil, scalarOf(r.cv, class)
	}
	return &Expr{kind: types.KindBool, pred: k}, nil
}

// rangeSel is two comparisons of one expression against constants — a
// lower and an upper bound — fused into one pass.
type rangeSel struct {
	x            *Expr
	class        cmpClass
	lo, hi       scalar
	loInc, hiInc bool
	out, nn, rem []int
}

func (r *rangeSel) sel(b *vector.Batch, s []int, want bool) ([]int, error) {
	lanes := resolveSel(b, s)
	xv, err := r.x.eval(b, lanes)
	if err != nil {
		return nil, err
	}
	defer r.x.FreeResult(xv)
	if xv.Nulls.AnySet(b.N) {
		lanes = selNulls(xv.Nulls, false, lanes, selScratch(&r.nn, len(lanes)))
	}
	out := selScratch(&r.out, len(lanes))
	switch r.class {
	case classInt:
		out = selRange(xv.I, r.lo.i, r.hi.i, r.loInc, r.hiInc, lanes, out)
	case classFloat:
		out = selRange(xv.F, r.lo.f, r.hi.f, r.loInc, r.hiInc, lanes, out)
	default: // classString
		out = selRange(xv.S, r.lo.s, r.hi.s, r.loInc, r.hiInc, lanes, out)
	}
	if want {
		return out, nil
	}
	// FALSE on the non-NULL lanes outside the range.
	return selDiff(lanes, out, selScratch(&r.rem, len(lanes))), nil
}

// rangeBound recognizes `column op constant` conjuncts that can take part
// in a fused range: the compiled comparison reads a column directly (no
// widening) against a non-NULL constant.
func rangeBound(e *Expr) (k *cmpSel, lower, ok bool) {
	k, isCmp := e.pred.(*cmpSel)
	if !isCmp || k.r != nil || k.c.null || k.class == classBool {
		return nil, false, false
	}
	if _, isVar := k.l.val.(*varKernel); !isVar || (k.class == classFloat && k.l.kind != types.KindFloat) {
		return nil, false, false
	}
	switch k.op {
	case cmpGT, cmpGE:
		return k, true, true
	case cmpLT, cmpLE:
		return k, false, true
	}
	return nil, false, false
}

// fuseRanges replaces pairs of conjuncts bounding the same column from
// below and above by one rangeSel at the earlier conjunct's position.
func fuseRanges(kids []*Expr) []*Expr {
	for i := 0; i < len(kids); i++ {
		a, aLower, ok := rangeBound(kids[i])
		if !ok {
			continue
		}
		for j := i + 1; j < len(kids); j++ {
			c, cLower, ok := rangeBound(kids[j])
			if !ok || cLower == aLower || c.class != a.class ||
				c.l.val.(*varKernel).pos != a.l.val.(*varKernel).pos {
				continue
			}
			lo, hi := a, c
			if !aLower {
				lo, hi = c, a
			}
			kids[i] = &Expr{kind: types.KindBool, pred: &rangeSel{
				x: a.l, class: a.class, lo: lo.c, hi: hi.c,
				loInc: lo.op == cmpGE, hiInc: hi.op == cmpLE,
			}}
			kids = append(kids[:j], kids[j+1:]...)
			break
		}
	}
	return kids
}

// ---------------------------------------------------------------------------
// Boolean connectives

// logicSel is an n-ary AND or OR over select kernels, in source order.
// The answer that needs every operand (AND: TRUE, OR: FALSE) narrows the
// selection operand by operand; the answer one operand can give alone
// (AND: FALSE, OR: TRUE) is the union of what each operand decides on the
// lanes its predecessors left open.
type logicSel struct {
	kids  []selKernel
	isAnd bool
	union [2][]int
	rest  []int
}

func (l *logicSel) sel(b *vector.Batch, s []int, want bool) ([]int, error) {
	if want == l.isAnd {
		for _, k := range l.kids {
			var err error
			if s, err = k.sel(b, s, want); err != nil {
				return nil, err
			}
			if s != nil && len(s) == 0 {
				break
			}
		}
		return s, nil
	}
	rest := resolveSel(b, s)
	acc, side := selScratch(&l.union[0], 0), 0
	for ki, k := range l.kids {
		d, err := k.sel(b, rest, want)
		if err != nil {
			return nil, err
		}
		switch {
		case len(d) == 0:
			continue
		case len(acc) == 0:
			acc = d // valid until k is asked again, which only this node does
		default:
			acc = selUnion(acc, d, selScratch(&l.union[side], len(acc)+len(d)))
			side ^= 1
		}
		if ki == len(l.kids)-1 || len(d) == len(rest) {
			break
		}
		rest = selDiff(rest, d, selScratch(&l.rest, len(rest)))
	}
	return acc, nil
}

// flattenLogic collects the operands of a left- or right-nested chain of
// one connective in source order.
func flattenLogic(e algebra.Expr, op string, out []algebra.Expr) []algebra.Expr {
	if n, ok := e.(*algebra.BinOp); ok && n.Op == op {
		return flattenLogic(n.Right, op, flattenLogic(n.Left, op, out))
	}
	return append(out, e)
}

func compileLogic(n *algebra.BinOp, bind algebra.Binder) (*Expr, error) {
	if n.Typ != types.KindBool {
		return nil, errUnsupported
	}
	operands := flattenLogic(n, n.Op, nil)
	kids := make([]*Expr, len(operands))
	for i, o := range operands {
		k, err := compileBool(o, bind)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	isAnd := n.Op == "AND"
	if isAnd {
		kids = fuseRanges(kids)
		if len(kids) == 1 {
			return kids[0], nil
		}
	}
	l := &logicSel{kids: make([]selKernel, len(kids)), isAnd: isAnd}
	for i, k := range kids {
		l.kids[i] = k.selector()
	}
	return &Expr{kind: types.KindBool, pred: l}, nil
}

// notSel answers the opposite question of its operand.
type notSel struct{ kid selKernel }

func (n *notSel) sel(b *vector.Batch, s []int, want bool) ([]int, error) {
	return n.kid.sel(b, s, !want)
}

// boolVecSel selects on a boolean computed as a vector (a boolean column,
// an EXISTS sublink, a CASE of boolean kind) or known at compile time.
type boolVecSel struct {
	e       *Expr
	out, nn []int
}

func (k *boolVecSel) sel(b *vector.Batch, s []int, want bool) ([]int, error) {
	if k.e.isConst {
		if !k.e.cv.Null && k.e.cv.B == want {
			return s, nil
		}
		return selScratch(&k.out, 0), nil
	}
	lanes := resolveSel(b, s)
	v, err := k.e.eval(b, lanes)
	if err != nil {
		return nil, err
	}
	defer k.e.FreeResult(v)
	if v.Nulls.AnySet(b.N) {
		lanes = selNulls(v.Nulls, false, lanes, selScratch(&k.nn, len(lanes)))
	}
	return selBool(v.B, want, lanes, selScratch(&k.out, len(lanes))), nil
}

// ---------------------------------------------------------------------------
// IS NULL, IS DISTINCT FROM, LIKE

// nullSel is x IS [NOT] NULL: never NULL itself.
type nullSel struct {
	x   *Expr
	not bool
	out []int
}

func (k *nullSel) sel(b *vector.Batch, s []int, want bool) ([]int, error) {
	lanes := resolveSel(b, s)
	v, err := k.x.eval(b, lanes)
	if err != nil {
		return nil, err
	}
	defer k.x.FreeResult(v)
	wantNull := want != k.not
	if !v.Nulls.AnySet(b.N) {
		if wantNull {
			return selScratch(&k.out, 0), nil
		}
		return s, nil
	}
	return selNulls(v.Nulls, wantNull, lanes, selScratch(&k.out, len(lanes))), nil
}

func compileIsNull(n *algebra.IsNull, bind algebra.Binder) (*Expr, error) {
	inner, err := CompileExpr(n.Expr, bind)
	if err != nil {
		return nil, err
	}
	return &Expr{kind: types.KindBool, pred: &nullSel{x: inner, not: n.Not}}, nil
}

// distinctSel is l IS [NOT] DISTINCT FROM r: a comparison in which NULL
// is an ordinary value, equal only to itself.
type distinctSel struct {
	cmp            cmpSel // operands, class and the scratch of the non-NULL lanes
	not            bool
	out, one, both []int
}

func (k *distinctSel) sel(b *vector.Batch, s []int, want bool) ([]int, error) {
	op := cmpNE
	if want == k.not {
		op = cmpEQ
	}
	lanes := resolveSel(b, s)
	lv, err := k.cmp.l.eval(b, lanes)
	if err != nil {
		return nil, err
	}
	defer k.cmp.l.FreeResult(lv)
	rv, err := k.cmp.r.eval(b, lanes)
	if err != nil {
		return nil, err
	}
	defer k.cmp.r.FreeResult(rv)
	compared := k.cmp.compare(op, lv, rv, lanes, b.N) // drops every lane with a NULL
	if !lv.Nulls.AnySet(b.N) && !rv.Nulls.AnySet(b.N) {
		return compared, nil
	}
	// Lanes with exactly one NULL are distinct, lanes with two are not.
	one := selScratch(&k.one, len(lanes))[:len(lanes)]
	both := selScratch(&k.both, len(lanes))[:len(lanes)]
	n1, n2 := 0, 0
	for _, i := range lanes {
		ln, rn := lv.Nulls.Get(i), rv.Nulls.Get(i)
		one[n1] = i
		both[n2] = i
		if ln != rn {
			n1++
		}
		if ln && rn {
			n2++
		}
	}
	decided := one[:n1]
	if op == cmpEQ {
		decided = both[:n2]
	}
	return selUnion(decided, compared, selScratch(&k.out, len(lanes))), nil
}

func compileDistinctFrom(n *algebra.DistinctFrom, bind algebra.Binder) (*Expr, error) {
	l, err := CompileExpr(n.Left, bind)
	if err != nil {
		return nil, err
	}
	r, err := CompileExpr(n.Right, bind)
	if err != nil {
		return nil, err
	}
	class := classify(l.kind, r.kind)
	if class == classNone {
		return nil, errUnsupported
	}
	k := &distinctSel{cmp: cmpSel{l: l, r: r, class: class}, not: n.Not}
	return &Expr{kind: types.KindBool, pred: k}, nil
}

// likeSel is l LIKE pattern; r is nil when the pattern is the constant
// compiled into m.
type likeSel struct {
	l, r     *Expr
	m        likeMatcher
	nullPat  bool
	out, nns []int
}

func (k *likeSel) sel(b *vector.Batch, s []int, want bool) ([]int, error) {
	if k.nullPat {
		return selScratch(&k.out, 0), nil
	}
	lanes := resolveSel(b, s)
	lv, err := k.l.eval(b, lanes)
	if err != nil {
		return nil, err
	}
	defer k.l.FreeResult(lv)
	var rv *vector.Vec
	var rn vector.Bitmap
	if k.r != nil {
		if rv, err = k.r.eval(b, lanes); err != nil {
			return nil, err
		}
		defer k.r.FreeResult(rv)
		rn = rv.Nulls
	}
	if lv.Nulls.AnySet(b.N) || (rv != nil && rn.AnySet(b.N)) {
		lanes = selBothNotNull(lv.Nulls, rn, lanes, selScratch(&k.nns, len(lanes)))
	}
	out := selScratch(&k.out, len(lanes))
	if rv == nil {
		return selLikeVC(k.m, want, lv.S, lanes, out), nil
	}
	return selLikeVV(want, lv.S, rv.S, lanes, out), nil
}

func compileLikeExpr(n *algebra.BinOp, l, r *Expr) (*Expr, error) {
	if n.Typ != types.KindBool || l.kind != types.KindString || r.kind != types.KindString {
		return nil, errUnsupported
	}
	k := &likeSel{l: l, r: r}
	if r.isConst {
		k.r, k.nullPat = nil, r.cv.Null
		k.m = compileLike(r.cv.Str())
	}
	return &Expr{kind: types.KindBool, pred: k}, nil
}

// ---------------------------------------------------------------------------
// Arithmetic

func compileBinOp(n *algebra.BinOp, bind algebra.Binder) (*Expr, error) {
	if c, ok := foldedConst(n, n.Typ); ok {
		return c, nil
	}
	switch n.Op {
	case "AND", "OR":
		return compileLogic(n, bind)
	}
	l, err := CompileExpr(n.Left, bind)
	if err != nil {
		return nil, err
	}
	r, err := CompileExpr(n.Right, bind)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		return compileCompare(n, l, r)
	case "LIKE":
		return compileLikeExpr(n, l, r)
	case "+", "-", "*", "/", "%":
		return compileArith(n, l, r)
	default:
		return nil, errUnsupported
	}
}

// arithKernel is l op r over int lanes (both operands int; / truncates)
// or float lanes (a numeric pair, int operands widened). A nil operand is
// the constant c.
type arithKernel struct {
	l, r *Expr
	op   byte
	kind types.Kind
	c    scalar
	nn   []int
}

func (k *arithKernel) eval(b *vector.Batch, s []int) (*vector.Vec, error) {
	lanes := resolveSel(b, s)
	var lv, rv *vector.Vec
	var ln, rn vector.Bitmap
	var err error
	if k.l != nil {
		if lv, err = k.l.eval(b, lanes); err != nil {
			return nil, err
		}
		defer k.l.FreeResult(lv)
		ln = lv.Nulls
	}
	if k.r != nil {
		if rv, err = k.r.eval(b, lanes); err != nil {
			return nil, err
		}
		defer k.r.FreeResult(rv)
		rn = rv.Nulls
	}
	out := vector.NewBatchVec(k.kind, b.N)
	if k.c.null && (lv == nil || rv == nil) {
		fill(out, types.NewNull(k.kind), lanes)
		return out, nil
	}
	if (lv != nil && ln.AnySet(b.N)) || (rv != nil && rn.AnySet(b.N)) {
		orNulls(out.Nulls, ln, rn, b.N)
		if k.op == '/' || k.op == '%' {
			// A NULL lane's payload may be the zero that fails the division.
			lanes = selBothNotNull(ln, rn, lanes, selScratch(&k.nn, len(lanes)))
		}
	}
	if k.kind == types.KindInt {
		err = k.evalInt(out.I, lv, rv, lanes)
	} else {
		err = k.evalFloat(out.F, lv, rv, lanes, b.N)
	}
	if err != nil {
		out.Free()
		return nil, err
	}
	return out, nil
}

func (k *arithKernel) evalInt(out []int64, lv, rv *vector.Vec, lanes []int) error {
	switch {
	case k.op == '%' && rv == nil:
		return modVC(out, lv.I, k.c.i, lanes)
	case k.op == '%' && lv == nil:
		return modCV(out, k.c.i, rv.I, lanes)
	case k.op == '%':
		return modVV(out, lv.I, rv.I, lanes)
	case rv == nil:
		return arithVC(k.op, out, lv.I, k.c.i, lanes)
	case lv == nil:
		return arithCV(k.op, out, k.c.i, rv.I, lanes)
	default:
		return arithVV(k.op, out, lv.I, rv.I, lanes)
	}
}

func (k *arithKernel) evalFloat(out []float64, lv, rv *vector.Vec, lanes []int, n int) error {
	var lf, rf []float64
	if lv != nil {
		var tmp *vector.Vec
		lf, tmp = floatLanes(lv, lanes, n)
		defer tmp.Free()
	}
	if rv != nil {
		var tmp *vector.Vec
		rf, tmp = floatLanes(rv, lanes, n)
		defer tmp.Free()
	}
	switch {
	case rv == nil:
		return arithVC(k.op, out, lf, k.c.f, lanes)
	case lv == nil:
		return arithCV(k.op, out, k.c.f, rf, lanes)
	default:
		return arithVV(k.op, out, lf, rf, lanes)
	}
}

func compileArith(n *algebra.BinOp, l, r *Expr) (*Expr, error) {
	k := &arithKernel{l: l, r: r, op: n.Op[0]}
	class := classInt
	switch {
	case l.kind == types.KindInt && r.kind == types.KindInt && n.Typ == types.KindInt:
		k.kind = types.KindInt
	case l.kind.Numeric() && r.kind.Numeric() && n.Op != "%" && n.Typ == types.KindFloat:
		k.kind, class = types.KindFloat, classFloat
	default:
		return nil, errUnsupported
	}
	switch {
	case r.isConst:
		k.r, k.c = nil, scalarOf(r.cv, class)
	case l.isConst:
		k.l, k.c = nil, scalarOf(l.cv, class)
	}
	return &Expr{kind: k.kind, val: k}, nil
}

// negKernel is unary minus.
type negKernel struct{ x *Expr }

func (k *negKernel) eval(b *vector.Batch, s []int) (*vector.Vec, error) {
	lanes := resolveSel(b, s)
	v, err := k.x.eval(b, lanes)
	if err != nil {
		return nil, err
	}
	defer k.x.FreeResult(v)
	out := vector.NewBatchVec(v.Kind, b.N)
	orNulls(out.Nulls, v.Nulls, nil, b.N)
	if v.Kind == types.KindInt {
		negate(out.I, v.I, lanes)
	} else {
		negate(out.F, v.F, lanes)
	}
	return out, nil
}

func compileUnOp(n *algebra.UnOp, bind algebra.Binder) (*Expr, error) {
	if c, ok := foldedConst(n, n.Typ); ok {
		return c, nil
	}
	switch n.Op {
	case "NOT":
		inner, err := compileBool(n.Expr, bind)
		if err != nil {
			return nil, err
		}
		return &Expr{kind: types.KindBool, pred: &notSel{kid: inner.selector()}}, nil
	case "-":
		inner, err := CompileExpr(n.Expr, bind)
		if err != nil {
			return nil, err
		}
		if (inner.kind != types.KindInt && inner.kind != types.KindFloat) || n.Typ != inner.kind {
			return nil, errUnsupported
		}
		return &Expr{kind: inner.kind, val: &negKernel{x: inner}}, nil
	default:
		return nil, errUnsupported
	}
}

// ---------------------------------------------------------------------------
// CASE

// caseKernel is a searched CASE built from the select kernels: each arm's
// condition narrows the lanes no earlier arm claimed, the arm's result is
// evaluated on exactly those lanes and scattered into the output, and what
// remains takes the ELSE (or NULL). Result expressions therefore never run
// on lanes their condition excluded, like the row engine's.
type caseKernel struct {
	conds   []selKernel
	results []*Expr
	els     *Expr // nil: NULL
	kind    types.Kind
	rest    []int
}

func (k *caseKernel) eval(b *vector.Batch, s []int) (*vector.Vec, error) {
	rest := resolveSel(b, s)
	out := vector.NewBatchVec(k.kind, b.N)
	for a, cond := range k.conds {
		t, err := cond.sel(b, rest, true)
		if err == nil && len(t) > 0 {
			err = k.branch(k.results[a], b, t, out)
		}
		if err != nil {
			out.Free()
			return nil, err
		}
		if len(t) == len(rest) {
			return out, nil
		}
		if len(t) > 0 {
			rest = selDiff(rest, t, selScratch(&k.rest, len(rest)))
		}
	}
	if k.els == nil {
		fill(out, types.NewNull(k.kind), rest)
		return out, nil
	}
	if err := k.branch(k.els, b, rest, out); err != nil {
		out.Free()
		return nil, err
	}
	return out, nil
}

// branch stores a result expression's values for the given lanes.
func (k *caseKernel) branch(e *Expr, b *vector.Batch, lanes []int, out *vector.Vec) error {
	if e.isConst {
		fill(out, e.cv, lanes)
		return nil
	}
	v, err := e.eval(b, lanes)
	if err != nil {
		return err
	}
	scatter(out, v, lanes)
	e.FreeResult(v)
	return nil
}

// compileCaseResult compiles one result expression of a CASE of kind typ:
// its own kind must be typ, or int under a float CASE (widened lane by
// lane, as the row engine coerces the chosen value), or it is a NULL
// literal.
func compileCaseResult(e algebra.Expr, typ types.Kind, bind algebra.Binder) (*Expr, error) {
	if c, ok := e.(*algebra.Const); ok && c.Val.Null {
		return &Expr{kind: typ, isConst: true, cv: types.NewNull(typ)}, nil
	}
	r, err := CompileExpr(e, bind)
	if err != nil {
		return nil, err
	}
	if r.kind != typ && !(r.kind == types.KindInt && typ == types.KindFloat) {
		return nil, errUnsupported
	}
	return r, nil
}

func compileCase(n *algebra.CaseExpr, bind algebra.Binder) (*Expr, error) {
	if !vector.Supported(n.Typ) {
		return nil, errUnsupported
	}
	k := &caseKernel{kind: n.Typ, conds: make([]selKernel, len(n.Whens)), results: make([]*Expr, len(n.Whens))}
	for i, w := range n.Whens {
		cond, err := compileBool(w.Cond, bind)
		if err != nil {
			return nil, err
		}
		k.conds[i] = cond.selector()
		if k.results[i], err = compileCaseResult(w.Result, n.Typ, bind); err != nil {
			return nil, err
		}
	}
	if n.Else != nil {
		var err error
		if k.els, err = compileCaseResult(n.Else, n.Typ, bind); err != nil {
			return nil, err
		}
	}
	return &Expr{kind: n.Typ, val: k}, nil
}
