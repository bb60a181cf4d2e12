package vector

import "perm/internal/types"

const tableShift = 12

// TableChunk is the capacity in rows of every chunk of a Table. It is a
// power of two, so a row id splits into chunk and offset with a shift and
// a mask, and small enough that the unfilled tail of the last chunk — the
// only storage a table holds beyond the rows appended to it — stays a
// bounded overshoot of what its operator reserved against the memory
// budget.
const TableChunk = 1 << tableShift

// Table is an append-only columnar row store: the materialization side of
// every blocking operator. Rows live in chunks of TableChunk rows of
// column vectors, and a chunk that has been filled is never reallocated
// or copied again, so appending n rows costs n row copies (plus at most
// one chunk's worth, below) however large the table grows. Only the first
// chunk starts smaller: it is allocated for the first batch appended (a
// 40-row input allocates for 40 rows) and doubles while the table is
// still within it, which keeps the many small tables of a 40-row plan as
// small as their contents. Rows are addressed by dense row ids
// 0..Len()-1 in append order. The zero value is an empty table ready for
// use.
type Table struct {
	kinds  []types.Kind
	nulls  []bool   // per column: some appended row may be NULL
	chunks [][]*Vec // chunks[ch][col]; a vector's length is the chunk's fill
	first  int      // rows the first chunk is first allocated for
	room   int      // unfilled rows of the last chunk
	n      int
}

// Init fixes the column kinds and sizes the first chunk for rows rows.
// Append and AppendLane call it with their first batch; an operator that
// knows better (a rebuild of known size) calls it beforehand. A call on a
// table that already has its kinds is a no-op.
func (t *Table) Init(kinds []types.Kind, rows int) {
	if t.kinds != nil {
		return
	}
	if rows < 1 {
		rows = 1
	}
	if rows > TableChunk {
		rows = TableChunk
	}
	t.kinds, t.first = kinds, rows
	t.nulls = make([]bool, len(kinds))
}

// initFrom is Init with the kinds of a batch's columns.
func (t *Table) initFrom(cols []*Vec, rows int) {
	if t.kinds != nil {
		return
	}
	kinds := make([]types.Kind, len(cols))
	for c, v := range cols {
		kinds[c] = v.Kind
	}
	t.Init(kinds, rows)
}

// Len returns the number of rows appended so far.
func (t *Table) Len() int { return t.n }

// Kinds returns the column kinds (nil before the first append).
func (t *Table) Kinds() []types.Kind { return t.kinds }

// Chunks returns the chunks in row-id order, each a slice of column
// vectors whose length is the chunk's row count. Read-only.
func (t *Table) Chunks() [][]*Vec { return t.chunks }

// tail returns the chunk that takes the next rows, with room for at least
// one: the last chunk, the first chunk regrown (need more rows are about
// to arrive), or a new one.
func (t *Table) tail(need int) []*Vec {
	if t.room > 0 {
		return t.chunks[len(t.chunks)-1]
	}
	if t.n > 0 && t.n < TableChunk {
		rows := 2 * t.n
		if rows < t.n+need {
			rows = t.n + need
		}
		if rows > TableChunk {
			rows = TableChunk
		}
		for _, v := range t.chunks[0] {
			v.reserve(rows)
		}
		t.room = rows - t.n
		return t.chunks[0]
	}
	t.room = TableChunk
	if t.n == 0 {
		t.room = t.first
	}
	chunk := make([]*Vec, len(t.kinds))
	for c, k := range t.kinds {
		chunk[c] = NewVecCap(k, t.room)
	}
	t.chunks = append(t.chunks, chunk)
	return chunk
}

// reserve moves the vector's rows into storage for capRows rows.
func (v *Vec) reserve(capRows int) {
	grown := NewVecCap(v.Kind, capRows)
	n := v.Len()
	grown.Resize(n)
	switch v.Kind {
	case types.KindBool:
		copy(grown.B, v.B)
	case types.KindInt, types.KindDate:
		copy(grown.I, v.I)
	case types.KindFloat:
		copy(grown.F, v.F)
	case types.KindString:
		copy(grown.S, v.S)
	}
	copy(grown.Nulls, v.Nulls)
	*v = *grown
}

// Append copies the given lanes (increasing) of a batch's columns to the
// end of the table.
func (t *Table) Append(cols []*Vec, lanes []int) {
	if len(lanes) == 0 {
		return
	}
	t.initFrom(cols, len(lanes))
	for c, v := range cols {
		if !t.nulls[c] && v.Nulls.AnyInRange(lanes[0], lanes[len(lanes)-1]+1) {
			t.nulls[c] = true
		}
	}
	for len(lanes) > 0 {
		chunk := t.tail(len(lanes))
		take := len(lanes)
		if take > t.room {
			take = t.room
		}
		for c, dst := range chunk {
			at := dst.Len()
			dst.Resize(at + take)
			dst.CopyLanes(at, cols[c], lanes[:take])
		}
		t.room -= take
		t.n += take
		lanes = lanes[take:]
	}
}

// AppendLane copies one lane of a batch's columns to the end of the
// table. On a table not yet initialized the first chunk is sized to the
// physical rows of the batch the lane comes from.
func (t *Table) AppendLane(cols []*Vec, lane int) {
	if t.kinds == nil {
		rows := 0
		if len(cols) > 0 {
			rows = cols[0].Len()
		}
		t.initFrom(cols, rows)
	}
	for c, dst := range t.tail(1) {
		dst.AppendFrom(cols[c], lane)
		if cols[c].Nulls.Get(lane) {
			t.nulls[c] = true
		}
	}
	t.room--
	t.n++
}

// At returns the columns of the chunk holding row id and the row's lane
// within them, for the comparison and hashing helpers that take a
// (columns, lane) pair.
func (t *Table) At(id int) ([]*Vec, int) {
	return t.chunks[id>>tableShift], id & (TableChunk - 1)
}

// GatherCol copies column c of the rows with the given ids into out[0:],
// which must hold at least len(ids) rows; it defines their null bits. A
// negative id produces a NULL row (outer-join null extension). The payload
// moves in one loop per kind; the null bits are visited only when the
// column holds NULLs or an id is negative.
func (t *Table) GatherCol(c int, ids []int32, out *Vec) {
	for w := range out.Nulls[:(len(ids)+63)>>6] {
		out.Nulls[w] = 0
	}
	var negative bool
	switch out.Kind {
	case types.KindBool:
		negative = gatherChunks(t.chunks, c, ids, out.B, func(v *Vec) []bool { return v.B })
	case types.KindInt, types.KindDate:
		negative = gatherChunks(t.chunks, c, ids, out.I, func(v *Vec) []int64 { return v.I })
	case types.KindFloat:
		negative = gatherChunks(t.chunks, c, ids, out.F, func(v *Vec) []float64 { return v.F })
	case types.KindString:
		negative = gatherChunks(t.chunks, c, ids, out.S, func(v *Vec) []string { return v.S })
	}
	if !negative && (len(ids) == 0 || !t.nulls[c]) {
		return
	}
	for o, id := range ids {
		if id < 0 || t.chunks[id>>tableShift][c].Nulls.Get(int(id)&(TableChunk-1)) {
			out.Nulls.Set(o)
		}
	}
}

// gatherChunks copies the payload of column c at the given row ids to
// out, skipping negative ids, and reports whether it met one. The chunks'
// payload slices are looked up once, not per row.
func gatherChunks[T any](chunks [][]*Vec, c int, ids []int32, out []T, payload func(*Vec) []T) (negative bool) {
	var few [16][]T
	srcs := few[:0]
	for _, ch := range chunks {
		srcs = append(srcs, payload(ch[c]))
	}
	if len(srcs) == 1 {
		src := srcs[0]
		for o, id := range ids {
			if id < 0 {
				negative = true
				continue
			}
			out[o] = src[id]
		}
		return negative
	}
	for o, id := range ids {
		if id < 0 {
			negative = true
			continue
		}
		out[o] = srcs[id>>tableShift][id&(TableChunk-1)]
	}
	return negative
}
