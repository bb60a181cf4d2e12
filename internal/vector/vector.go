// Package vector defines the columnar data representation of the Perm
// engine's vectorized execution path (package vexec): typed column
// vectors with null bitmaps, fixed-capacity row batches with selection
// vectors, and Table, the one append-only store every materializing
// operator (sort, top-N, DISTINCT, set operations, join build sides,
// group keys) collects its rows in. Converting a heap of boxed
// types.Value rows into this layout once per snapshot lets the batch
// operators run tight, monomorphic loops over unboxed Go slices.
//
// A row is copied twice on its way through a materializing operator:
// once in (Table.Append compacts the live lanes of a batch into the
// table's current chunk; a filled chunk is never touched again) and once
// out (Table.GatherCol assembles an output batch by row id). The
// join-back (vexec.AggAttach) copies the columns a scan's snapshot holds
// once: it keeps their row id and gathers them from the snapshot on the
// way out (Vec.GatherRows), or, when nothing between it and the result
// root reads them, hands the ids up as deferred columns (Vec.Defer). The
// result boundary boxes column at a time (Vec.BoxStrided) into one slab of
// values per batch, a deferred column straight from its source.
package vector

import (
	"math"
	"sync"

	"perm/internal/types"
)

// BatchSize is the number of rows processed per operator invocation. It
// is a multiple of 64 so batch windows cut null bitmaps at word
// boundaries.
const BatchSize = 1024

// identityLanes is the shared all-rows selection 0..BatchSize-1.
var identityLanes = func() []int {
	lanes := make([]int, BatchSize)
	for i := range lanes {
		lanes[i] = i
	}
	return lanes
}()

// Lanes returns the selection 0..n-1 (n ≤ BatchSize) as an explicit lane
// list: what a nil selection vector stands for. The list is shared and
// read-only.
func Lanes(n int) []int { return identityLanes[:n] }

// Bitmap is a bit-per-row mask (1 = set). Bit i of word i/64 is row i.
type Bitmap []uint64

// NewBitmap returns a zeroed bitmap covering n rows.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool {
	if len(b) == 0 {
		return false
	}
	return b[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bitmap) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// AnySet reports whether any of the first n bits is set.
func (b Bitmap) AnySet(n int) bool {
	full := n >> 6
	for w := 0; w < full; w++ {
		if b[w] != 0 {
			return true
		}
	}
	if rest := n & 63; rest > 0 && full < len(b) {
		if b[full]&(1<<uint(rest)-1) != 0 {
			return true
		}
	}
	return false
}

// AnyInRange reports whether any bit in [lo, hi) is set. It reads only
// the words the range touches, so a run of a few rows costs one load.
func (b Bitmap) AnyInRange(lo, hi int) bool {
	if limit := len(b) << 6; hi > limit {
		hi = limit
	}
	if lo >= hi {
		return false
	}
	first, last := lo>>6, (hi-1)>>6
	head := ^uint64(0) << (uint(lo) & 63)
	tail := ^uint64(0) >> (63 - uint(hi-1)&63)
	if first == last {
		return b[first]&head&tail != 0
	}
	if b[first]&head != 0 || b[last]&tail != 0 {
		return true
	}
	for _, w := range b[first+1 : last] {
		if w != 0 {
			return true
		}
	}
	return false
}

// Supported reports whether a column of kind k can be stored in a Vec.
// Interval columns and untyped-NULL columns stay on the row engine.
func Supported(k types.Kind) bool {
	switch k {
	case types.KindBool, types.KindInt, types.KindFloat, types.KindString, types.KindDate:
		return true
	default:
		return false
	}
}

// Vec is a typed column vector. Exactly one payload slice (selected by
// Kind) is populated; Nulls marks NULL rows (payload at null positions is
// unspecified). Date values live in I as days since the epoch, exactly
// like types.Value.
type Vec struct {
	Kind  types.Kind
	Nulls Bitmap
	I     []int64
	F     []float64
	B     []bool
	S     []string

	// Dict, when set, makes the vector a deferred column: its row r is row
	// Ids[r] of Dict (NULL where the id is negative), and it holds no
	// payload of its own. See Defer.
	Dict *Vec
	Ids  []int32

	// pooled marks a batch-sized vector obtained from the shared buffer
	// pool (NewBatchVec); Free returns such vectors for reuse and is a
	// no-op on everything else.
	pooled bool
	// dictNulls says whether Dict may hold NULLs.
	dictNulls bool
}

// Defer makes v a deferred column of kind k over src: row r of v is row
// ids[r] of src, NULL where the id is negative; nulls says whether src may
// hold NULLs, so its bitmap is not scanned per batch. A join-back hands
// columns it would gather from a snapshot or its group output to the
// result root this way (late materialization): the root boxes them from
// src in one pass (BoxStrided), and no other reader may see one.
// v is a reusable header: the caller keeps it, and ids, valid for as long
// as the batch it emits is.
func (v *Vec) Defer(k types.Kind, src *Vec, ids []int32, nulls bool) {
	*v = Vec{Kind: k, Dict: src, Ids: ids, dictNulls: nulls}
}

// NewVec returns a vector of kind k with capacity for n rows, all
// initially non-NULL zero values.
func NewVec(k types.Kind, n int) *Vec {
	v := &Vec{Kind: k, Nulls: NewBitmap(n)}
	switch k {
	case types.KindBool:
		v.B = make([]bool, n)
	case types.KindInt, types.KindDate:
		v.I = make([]int64, n)
	case types.KindFloat:
		v.F = make([]float64, n)
	case types.KindString:
		v.S = make([]string, n)
	}
	return v
}

// NewVecCap returns an empty vector of kind k that can take capRows rows
// through AppendFrom before its storage has to grow: the write buffers
// of the spill paths and the chunks of a Table are sized once this way.
func NewVecCap(k types.Kind, capRows int) *Vec {
	v := NewVec(k, capRows)
	v.Resize(0)
	return v
}

// Resize sets the vector's length to n rows within the capacity it was
// created with, keeping its storage. Null bits are left as they are: a
// buffer that is emptied and refilled clears them with ClearNulls.
func (v *Vec) Resize(n int) {
	switch v.Kind {
	case types.KindBool:
		v.B = v.B[:n]
	case types.KindInt, types.KindDate:
		v.I = v.I[:n]
	case types.KindFloat:
		v.F = v.F[:n]
	case types.KindString:
		v.S = v.S[:n]
	}
}

// ClearNulls marks every row non-NULL.
func (v *Vec) ClearNulls() {
	for w := range v.Nulls {
		v.Nulls[w] = 0
	}
}

// ---------------------------------------------------------------------------
// Batch-buffer pool
//
// The vectorized operators allocate one result vector per expression per
// batch. Those vectors are short-lived — a kernel result is consumed by
// its parent within the same Next call, and an operator's output batch is
// abandoned by its consumer before the next Next call — so recycling them
// through a sync.Pool removes the dominant per-batch allocations from the
// hot path. Vectors whose lifetime is not batch-bounded (snapshot
// columns, windows, accumulators, constant caches) are allocated with
// NewVec and are never pooled.

// poolClass maps a kind to its payload pool (int and date share I).
func poolClass(k types.Kind) int {
	switch k {
	case types.KindBool:
		return 0
	case types.KindInt, types.KindDate:
		return 1
	case types.KindFloat:
		return 2
	case types.KindString:
		return 3
	default:
		return -1
	}
}

var vecPools [4]sync.Pool

// NewBatchVec returns a vector of kind k with n rows (n ≤ BatchSize),
// all initially non-NULL, drawn from the shared buffer pool when
// possible. The caller owns the vector; pass it to Free when its batch
// is done, or leave it for the garbage collector (Free is optional).
func NewBatchVec(k types.Kind, n int) *Vec {
	cls := poolClass(k)
	if cls < 0 || n > BatchSize {
		return NewVec(k, n)
	}
	v, _ := vecPools[cls].Get().(*Vec)
	if v == nil {
		v = NewVec(k, BatchSize)
	}
	v.Kind = k // int and date share a pool
	v.ClearNulls()
	switch cls {
	case 0:
		v.B = v.B[:n]
	case 1:
		v.I = v.I[:n]
	case 2:
		v.F = v.F[:n]
	case 3:
		v.S = v.S[:n]
	}
	v.pooled = true
	return v
}

// Free returns a pooled vector to the shared buffer pool. It is a no-op
// for vectors that did not come from NewBatchVec, so callers may pass any
// vector whose batch lifetime has ended without tracking provenance.
// String payloads are kept as-is (the next user overwrites its lanes);
// the retained string references die with normal pool churn.
func (v *Vec) Free() {
	if v == nil || !v.pooled {
		return
	}
	v.pooled = false
	cls := poolClass(v.Kind)
	switch cls {
	case 0:
		v.B = v.B[:cap(v.B)]
	case 1:
		v.I = v.I[:cap(v.I)]
	case 2:
		v.F = v.F[:cap(v.F)]
	case 3:
		v.S = v.S[:cap(v.S)]
	}
	vecPools[cls].Put(v)
}

// Len returns the number of rows in the vector.
func (v *Vec) Len() int {
	switch v.Kind {
	case types.KindBool:
		return len(v.B)
	case types.KindInt, types.KindDate:
		return len(v.I)
	case types.KindFloat:
		return len(v.F)
	case types.KindString:
		return len(v.S)
	default:
		return len(v.Nulls) * 64
	}
}

// IsNull reports whether row i is NULL.
func (v *Vec) IsNull(i int) bool { return v.Nulls.Get(i) }

// SetNull marks row i NULL.
func (v *Vec) SetNull(i int) { v.Nulls.Set(i) }

// Set stores a types.Value at row i. The value must be NULL or of the
// vector's kind (numeric values are coerced across int/float).
func (v *Vec) Set(i int, val types.Value) {
	if val.Null {
		v.Nulls.Set(i)
		return
	}
	v.Nulls.Clear(i)
	switch v.Kind {
	case types.KindBool:
		v.B[i] = val.B
	case types.KindInt, types.KindDate:
		if val.K == types.KindFloat {
			v.I[i] = int64(val.F())
		} else {
			v.I[i] = val.I
		}
	case types.KindFloat:
		v.F[i] = val.AsFloat()
	case types.KindString:
		v.S[i] = val.Str()
	}
}

// Value boxes row i back into a types.Value (the batch→row boundary).
func (v *Vec) Value(i int) types.Value {
	if v.Nulls.Get(i) {
		return types.NewNull(v.Kind)
	}
	switch v.Kind {
	case types.KindBool:
		return types.NewBool(v.B[i])
	case types.KindInt:
		return types.NewInt(v.I[i])
	case types.KindDate:
		return types.NewDate(v.I[i])
	case types.KindFloat:
		return types.NewFloat(v.F[i])
	case types.KindString:
		return types.NewString(v.S[i])
	default:
		return types.NewNull(v.Kind)
	}
}

// BoxStrided boxes n rows of the vector — those listed in sel, or rows
// 0..n-1 when sel is nil — into dst[0], dst[stride], dst[2*stride], ...:
// one column of a row-major slab of values. It is the bulk form of Value
// for the result boundary: the kind is examined once per column, not
// once per value. The slab must be freshly allocated: only the kind and
// the one payload field of each value are stored, the rest is taken to be
// zero already (storing every word again costs 7 % of a wide result).
// A deferred column (Defer) is boxed straight from its source, each row
// read at its id.
func (v *Vec) BoxStrided(dst []types.Value, stride int, sel []int, n int) {
	if v.Dict != nil {
		v.boxDeferred(dst, stride, sel, n)
		return
	}
	nulls := v.Nulls.AnySet(v.Len())
	null := types.NewNull(v.Kind)
	o := 0
	switch v.Kind {
	case types.KindBool:
		for r := 0; r < n; r, o = r+1, o+stride {
			i := r
			if sel != nil {
				i = sel[r]
			}
			if nulls && v.Nulls.Get(i) {
				dst[o] = null
			} else {
				dst[o].K, dst[o].B = types.KindBool, v.B[i]
			}
		}
	case types.KindInt, types.KindDate:
		for r := 0; r < n; r, o = r+1, o+stride {
			i := r
			if sel != nil {
				i = sel[r]
			}
			if nulls && v.Nulls.Get(i) {
				dst[o] = null
			} else {
				dst[o].K, dst[o].I = v.Kind, v.I[i]
			}
		}
	case types.KindFloat:
		for r := 0; r < n; r, o = r+1, o+stride {
			i := r
			if sel != nil {
				i = sel[r]
			}
			if nulls && v.Nulls.Get(i) {
				dst[o] = null
			} else {
				dst[o].K, dst[o].I = types.KindFloat, int64(math.Float64bits(v.F[i]))
			}
		}
	case types.KindString:
		for r := 0; r < n; r, o = r+1, o+stride {
			i := r
			if sel != nil {
				i = sel[r]
			}
			if nulls && v.Nulls.Get(i) {
				dst[o] = null
			} else {
				dst[o].SetString(v.S[i])
			}
		}
	default:
		for r := 0; r < n; r, o = r+1, o+stride {
			dst[o] = null
		}
	}
}

// boxDeferred is BoxStrided of a deferred column: row r is row
// Ids[sel[r]] of Dict, the batch's selection and the ids composed as the
// values are stored.
func (v *Vec) boxDeferred(dst []types.Value, stride int, sel []int, n int) {
	src, ids, nulls := v.Dict, v.Ids, v.dictNulls
	null := types.NewNull(v.Kind)
	o := 0
	switch v.Kind {
	case types.KindBool:
		for r := 0; r < n; r, o = r+1, o+stride {
			i := r
			if sel != nil {
				i = sel[r]
			}
			if id := ids[i]; id < 0 || nulls && src.Nulls.Get(int(id)) {
				dst[o] = null
			} else {
				dst[o].K, dst[o].B = types.KindBool, src.B[id]
			}
		}
	case types.KindInt, types.KindDate:
		for r := 0; r < n; r, o = r+1, o+stride {
			i := r
			if sel != nil {
				i = sel[r]
			}
			if id := ids[i]; id < 0 || nulls && src.Nulls.Get(int(id)) {
				dst[o] = null
			} else {
				dst[o].K, dst[o].I = v.Kind, src.I[id]
			}
		}
	case types.KindFloat:
		for r := 0; r < n; r, o = r+1, o+stride {
			i := r
			if sel != nil {
				i = sel[r]
			}
			if id := ids[i]; id < 0 || nulls && src.Nulls.Get(int(id)) {
				dst[o] = null
			} else {
				dst[o].K, dst[o].I = types.KindFloat, int64(math.Float64bits(src.F[id]))
			}
		}
	case types.KindString:
		for r := 0; r < n; r, o = r+1, o+stride {
			i := r
			if sel != nil {
				i = sel[r]
			}
			if id := ids[i]; id < 0 || nulls && src.Nulls.Get(int(id)) {
				dst[o] = null
			} else {
				dst[o].SetString(src.S[id])
			}
		}
	default:
		for r := 0; r < n; r, o = r+1, o+stride {
			dst[o] = null
		}
	}
}

// AppendFrom appends row i of src (which must have the same kind) to the
// end of the vector, growing it by one row. It is the record-at-a-time
// append of the bounded spill write buffers (NewVecCap) and of
// Table.AppendLane; neither outgrows the capacity it was created with.
func (v *Vec) AppendFrom(src *Vec, i int) {
	n := v.Len()
	switch v.Kind {
	case types.KindBool:
		v.B = append(v.B, src.B[i])
	case types.KindInt, types.KindDate:
		v.I = append(v.I, src.I[i])
	case types.KindFloat:
		v.F = append(v.F, src.F[i])
	case types.KindString:
		v.S = append(v.S, src.S[i])
	}
	if n>>6 >= len(v.Nulls) {
		v.Nulls = append(v.Nulls, 0)
	}
	if src.Nulls.Get(i) {
		v.Nulls.Set(n)
	}
}

// contiguous reports whether an increasing lane list is one unbroken run
// (a batch without a selection vector, or a selection that kept a
// prefix), which copies as a block.
func contiguous(lanes []int) bool {
	return lanes[len(lanes)-1]-lanes[0] == len(lanes)-1
}

// CopyLanes copies the src rows listed in lanes (increasing) into this
// vector starting at position at, which must leave room for len(lanes)
// rows whose null bits are still clear. Kinds must match. The payload
// moves in one monomorphic loop — a block copy when the lanes are one
// unbroken run — and the null bitmap is only walked when the source rows
// actually carry NULLs.
func (v *Vec) CopyLanes(at int, src *Vec, lanes []int) {
	if len(lanes) == 0 {
		return
	}
	if contiguous(lanes) {
		v.CopyRange(at, src, lanes[0], lanes[0]+len(lanes))
		return
	}
	switch v.Kind {
	case types.KindBool:
		dst := v.B[at : at+len(lanes)]
		for o, i := range lanes {
			dst[o] = src.B[i]
		}
	case types.KindInt, types.KindDate:
		dst := v.I[at : at+len(lanes)]
		for o, i := range lanes {
			dst[o] = src.I[i]
		}
	case types.KindFloat:
		dst := v.F[at : at+len(lanes)]
		for o, i := range lanes {
			dst[o] = src.F[i]
		}
	case types.KindString:
		dst := v.S[at : at+len(lanes)]
		for o, i := range lanes {
			dst[o] = src.S[i]
		}
	}
	if src.Nulls.AnyInRange(lanes[0], lanes[len(lanes)-1]+1) {
		for o, i := range lanes {
			if src.Nulls.Get(i) {
				v.Nulls.Set(at + o)
			}
		}
	}
}

// CopyRange copies src rows [lo, hi) into this vector starting at
// position at, under the same conditions as CopyLanes: the run copy of
// the k-way merges and of batches without a selection vector.
func (v *Vec) CopyRange(at int, src *Vec, lo, hi int) {
	switch v.Kind {
	case types.KindBool:
		copy(v.B[at:at+hi-lo], src.B[lo:hi])
	case types.KindInt, types.KindDate:
		copy(v.I[at:at+hi-lo], src.I[lo:hi])
	case types.KindFloat:
		copy(v.F[at:at+hi-lo], src.F[lo:hi])
	case types.KindString:
		copy(v.S[at:at+hi-lo], src.S[lo:hi])
	}
	if src.Nulls.AnyInRange(lo, hi) {
		for i := lo; i < hi; i++ {
			if src.Nulls.Get(i) {
				v.Nulls.Set(at + i - lo)
			}
		}
	}
}

// GatherBatch copies the src rows at the given indices (len(idx) ≤
// BatchSize) into a vector of kind k (src's kind, or a compatible one for
// all-NULL gathers) drawn from the batch-buffer pool. A negative index
// produces a NULL row (outer-join null extension). The caller owns the
// result and may Free it once the emitted batch has been abandoned by its
// consumer.
func GatherBatch(src *Vec, idx []int32, k types.Kind) *Vec {
	out := NewBatchVec(k, len(idx))
	out.GatherRows(src, idx, src.Nulls.AnySet(src.Len()))
	return out
}

// GatherRows copies the rows of src at the given ids into the vector's
// rows 0..len(ids)-1, whose null bits must be clear. src is read in place
// however long it is — a whole snapshot column serves a gather by row id —
// so the caller says whether it may hold NULLs (nulls) instead of having
// its bitmap scanned per call. A negative id produces a NULL row.
func (v *Vec) GatherRows(src *Vec, ids []int32, nulls bool) {
	switch v.Kind {
	case types.KindBool:
		gather(v.B, src.B, ids)
	case types.KindInt, types.KindDate:
		gather(v.I, src.I, ids)
	case types.KindFloat:
		gather(v.F, src.F, ids)
	case types.KindString:
		gather(v.S, src.S, ids)
	}
	for o, i := range ids {
		if i < 0 || (nulls && src.Nulls.Get(int(i))) {
			v.Nulls.Set(o)
		}
	}
}

// gather copies src[idx[o]] to dst[o]; negative indices leave dst[o] as it
// is (the caller marks those rows NULL).
func gather[T any](dst, src []T, idx []int32) {
	for o, i := range idx {
		if i >= 0 {
			dst[o] = src[i]
		}
	}
}

// Window returns a view of rows [lo, hi) sharing the vector's backing
// arrays. lo must be a multiple of 64 so the null bitmap slices cleanly;
// batch windows at BatchSize boundaries always satisfy this.
func (v *Vec) Window(lo, hi int) *Vec {
	w := &Vec{}
	v.WindowInto(lo, hi, w)
	return w
}

// WindowInto points w (an existing, reusable Vec struct) at rows
// [lo, hi) of v, sharing the backing arrays. Scans use it to avoid one
// allocation per column per batch.
func (v *Vec) WindowInto(lo, hi int, w *Vec) {
	if lo&63 != 0 {
		panic("vector: window start must be a multiple of 64")
	}
	*w = Vec{Kind: v.Kind}
	wordLo := lo >> 6
	wordHi := (hi + 63) >> 6
	if wordHi > len(v.Nulls) {
		wordHi = len(v.Nulls)
	}
	if wordLo < wordHi {
		w.Nulls = v.Nulls[wordLo:wordHi]
	}
	switch v.Kind {
	case types.KindBool:
		w.B = v.B[lo:hi]
	case types.KindInt, types.KindDate:
		w.I = v.I[lo:hi]
	case types.KindFloat:
		w.F = v.F[lo:hi]
	case types.KindString:
		w.S = v.S[lo:hi]
	}
}

// FromRows pivots rows into column vectors of the given kinds. It
// returns ok=false when some non-NULL value does not fit its declared
// column kind (the caller then falls back to row execution).
func FromRows(rows []types.Row, kinds []types.Kind) (cols []*Vec, ok bool) {
	cols = make([]*Vec, len(kinds))
	for j, k := range kinds {
		if !Supported(k) {
			return nil, false
		}
		cols[j] = NewVec(k, len(rows))
	}
	for i, r := range rows {
		if len(r) != len(kinds) {
			return nil, false
		}
		for j, val := range r {
			if !val.Null && !kindFits(val.K, kinds[j]) {
				return nil, false
			}
			cols[j].Set(i, val)
		}
	}
	return cols, true
}

// kindFits reports whether a value of kind k can be stored losslessly in
// a column declared as kind col.
func kindFits(k, col types.Kind) bool {
	if k == col {
		return true
	}
	return k == types.KindInt && col == types.KindFloat
}

// Batch is a horizontal slice of rows in columnar form. Sel, when
// non-nil, lists the live row positions in increasing order (a selection
// vector); nil means all N rows are live.
type Batch struct {
	N    int
	Cols []*Vec
	Sel  []int
}

// Live returns the number of live rows.
func (b *Batch) Live() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// Row boxes physical row i into a types.Row.
func (b *Batch) Row(i int) types.Row {
	r := make(types.Row, len(b.Cols))
	for j, c := range b.Cols {
		r[j] = c.Value(i)
	}
	return r
}
