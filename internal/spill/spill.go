// Package spill implements the temporary-file substrate of the Perm
// engine's spill-to-disk execution paths: sequential "runs" of encoded
// column batches (reusing the internal/vector layouts) for the
// vectorized operators, and a row codec for the row engine's external
// sort.
//
// Temp-file hygiene: every run is created with os.CreateTemp under a
// configurable directory and unlinked immediately after creation, so
// the storage is reclaimed by the OS the moment the file descriptor
// closes — including on a crash. On platforms (or filesystems) where
// the early unlink fails, the file is removed on Close instead, and
// Cleanup sweeps leftovers with the well-known name prefix on server
// start.
package spill

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"perm/internal/fault"
	"perm/internal/mem"
	"perm/internal/types"
	"perm/internal/vector"
)

func math64(f float64) uint64   { return math.Float64bits(f) }
func unmath64(u uint64) float64 { return math.Float64frombits(u) }

// DownHeap restores the min-heap property of h from position at, with
// less ordering the stored values. Shared by the k-way run mergers of
// both engines.
func DownHeap(h []int, at int, less func(a, b int) bool) {
	n := len(h)
	for {
		l, r := 2*at+1, 2*at+2
		least := at
		if l < n && less(h[l], h[least]) {
			least = l
		}
		if r < n && less(h[r], h[least]) {
			least = r
		}
		if least == at {
			return
		}
		h[at], h[least] = h[least], h[at]
		at = least
	}
}

// Heapify builds the heap bottom-up.
func Heapify(h []int, less func(a, b int) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		DownHeap(h, i, less)
	}
}

// FanIn caps how many runs one merge reads, so a merge's memory stays
// bounded however small the budget that cut the runs.
const FanIn = 8

// Reduce applies intermediate merge passes until at most FanIn runs
// remain. A level merges consecutive groups of FanIn runs from the front,
// each into one run through merge; the last level (at most FanIn² runs)
// stops as soon as FanIn runs are left. A level rewrites each run at most
// once, and R > FanIn runs take ⌈log_FanIn R⌉ − 1 levels, so the bytes
// written stay within that many times the first-level bytes. Groups stay
// consecutive and in order, so a merge that breaks ties by run position
// (the earlier segment first) keeps doing so across levels.
//
// Reduce closes the runs a merge consumed. merge closes what it wrote
// when it fails; Reduce then closes every other run, so each run is
// closed exactly once, and returns nil.
func Reduce[R io.Closer](runs []R, merge func(group []R) (R, error)) ([]R, error) {
	for len(runs) > FanIn {
		excess, last := len(runs)-FanIn, len(runs) <= FanIn*FanIn
		next := make([]R, 0, len(runs)/FanIn+FanIn)
		lo := 0
		for lo < len(runs) && (!last || excess > 0) {
			hi := min(lo+FanIn, len(runs))
			if last {
				hi = min(hi, lo+excess+1)
			}
			if hi-lo == 1 {
				next = append(next, runs[lo])
				lo = hi
				continue
			}
			out, err := merge(runs[lo:hi])
			if err != nil {
				closeAll(next)
				closeAll(runs[lo:])
				return nil, err
			}
			closeAll(runs[lo:hi])
			next = append(next, out)
			excess -= hi - lo - 1
			lo = hi
		}
		runs = append(next, runs[lo:]...)
	}
	return runs, nil
}

func closeAll[R io.Closer](runs []R) {
	for _, r := range runs {
		r.Close() //nolint:errcheck — temp storage, already unlinked
	}
}

// FilePrefix names every spill temp file, so crash leftovers are
// identifiable (and sweepable) without touching unrelated files.
const FilePrefix = "perm-spill-"

// Cleanup removes leftover spill files (from a crashed process whose
// early unlink did not happen) under dir ("" = the system temp
// directory, as for a run). It returns the number of files removed;
// missing directories are not an error.
func Cleanup(dir string) int {
	if dir == "" {
		dir = os.TempDir()
	}
	matches, err := filepath.Glob(filepath.Join(dir, FilePrefix+"*"))
	if err != nil {
		return 0
	}
	removed := 0
	for _, m := range matches {
		if os.Remove(m) == nil {
			removed++
		}
	}
	return removed
}

// Resources bundles what a spill-capable operator needs: the memory
// reservation it charges (nil = unlimited, never spills) and the
// directory its runs are created under. The zero value disables
// spilling.
type Resources struct {
	Res *mem.Reservation
	Dir string
}

// Enabled reports whether the operator can be denied memory — and must
// therefore be prepared to spill.
func (r Resources) Enabled() bool { return r.Res.Limited() }

// ---------------------------------------------------------------------------
// Shared temp-file plumbing

type tempFile struct {
	f *os.File
	// lateName holds the path when the early unlink failed; Close
	// removes it then.
	lateName string
	w        *bufio.Writer
	r        *bufio.Reader
	bytes    int64
	finished bool
	closed   bool
}

func newTempFile(dir string) (*tempFile, error) {
	if err := fault.Failure(fault.PointSpillWrite); err != nil {
		return nil, fmt.Errorf("spill: create temp file: %w", err)
	}
	f, err := os.CreateTemp(dir, FilePrefix+"*") // "" = the system temp directory
	if err != nil {
		return nil, fmt.Errorf("spill: create temp file: %w", err)
	}
	t := &tempFile{f: f, w: bufio.NewWriterSize(f, 1<<16)}
	if err := os.Remove(f.Name()); err != nil {
		t.lateName = f.Name()
	}
	return t, nil
}

func (t *tempFile) write(p []byte) error {
	// The fault tap simulates a mid-run write failure (disk full): the
	// bytes are reported unwritten, exactly as a short write would.
	if err := fault.Failure(fault.PointSpillWrite); err != nil {
		return fmt.Errorf("spill: write: %w", err)
	}
	n, err := t.w.Write(p)
	t.bytes += int64(n)
	return err
}

// finish flushes the write side and positions the file for reading.
func (t *tempFile) finish() error {
	if t.finished {
		return nil
	}
	t.finished = true
	if err := fault.Failure(fault.PointSpillWrite); err != nil {
		return fmt.Errorf("spill: flush: %w", err)
	}
	if err := t.w.Flush(); err != nil {
		return err
	}
	if _, err := t.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	t.r = bufio.NewReaderSize(t.f, 1<<16)
	return nil
}

func (t *tempFile) close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	err := t.f.Close()
	if t.lateName != "" {
		os.Remove(t.lateName) //nolint:errcheck — best-effort late unlink
	}
	return err
}

// ---------------------------------------------------------------------------
// Columnar run codec
//
// A Run is a sequence of batches. Each batch is encoded as:
//
//	u32 size of what follows
//	u32 rows, u16 cols
//	per column: u8 kind, u8 hasNulls,
//	            [hasNulls: ceil(rows/64) × u64 null words]
//	            payload (int/date: rows×i64, float: rows×f64,
//	                     bool: rows bytes,
//	                     string: rows × u32 length, then all the bytes)
//
// The size prefix lets the reader fetch a batch with one read into a
// buffer it keeps across batches, and check every length against the
// bytes actually there before it allocates for them.

// Run is one spill run of encoded column batches: written sequentially,
// finished, then read back sequentially exactly once.
type Run struct {
	t    *tempFile
	rows int64
	buf  []byte // one encoded batch: the write side's, then the read side's
	read int64  // bytes consumed by ReadCols
}

// NewRun creates a run file under dir.
func NewRun(dir string) (*Run, error) {
	t, err := newTempFile(dir)
	if err != nil {
		return nil, err
	}
	return &Run{t: t}, nil
}

// Rows returns the number of rows written so far.
func (r *Run) Rows() int64 { return r.rows }

// Bytes returns the encoded size written so far.
func (r *Run) Bytes() int64 { return r.t.bytes }

// grow extends the encode buffer by n bytes and returns the new region.
func (r *Run) grow(n int) []byte {
	at := len(r.buf)
	r.buf = slices.Grow(r.buf, n)[:at+n]
	return r.buf[at:]
}

// WriteCols appends one batch of n dense rows (no selection vectors; the
// caller gathers live lanes first). Column kinds must be consistent
// across every batch of the run.
func (r *Run) WriteCols(cols []*vector.Vec, n int) error {
	if n == 0 {
		return nil
	}
	r.rows += int64(n)
	r.buf = r.buf[:0]
	hdr := r.grow(10)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
	binary.LittleEndian.PutUint16(hdr[8:], uint16(len(cols)))
	words := (n + 63) / 64
	for _, c := range cols {
		hasNulls := c.Nulls.AnySet(n)
		if hasNulls {
			r.buf = append(r.buf, byte(c.Kind), 1)
			dst := r.grow(8 * words)
			for w := 0; w < words; w++ {
				var word uint64 // a bitmap may stop short of n rows
				if w < len(c.Nulls) {
					word = c.Nulls[w]
				}
				binary.LittleEndian.PutUint64(dst[8*w:], word)
			}
		} else {
			r.buf = append(r.buf, byte(c.Kind), 0)
		}
		switch c.Kind {
		case types.KindBool:
			dst := r.grow(n)
			for i, b := range c.B[:n] {
				dst[i] = 0
				if b {
					dst[i] = 1
				}
			}
		case types.KindInt, types.KindDate:
			dst := r.grow(8 * n)
			for i, x := range c.I[:n] {
				binary.LittleEndian.PutUint64(dst[8*i:], uint64(x))
			}
		case types.KindFloat:
			dst := r.grow(8 * n)
			for i, x := range c.F[:n] {
				binary.LittleEndian.PutUint64(dst[8*i:], math64(x))
			}
		case types.KindString:
			dst := r.grow(4 * n)
			for i, s := range c.S[:n] {
				binary.LittleEndian.PutUint32(dst[4*i:], uint32(len(s)))
			}
			for _, s := range c.S[:n] {
				r.buf = append(r.buf, s...)
			}
		default:
			return fmt.Errorf("spill: unsupported column kind %v", c.Kind)
		}
	}
	if len(r.buf)-4 > math.MaxUint32 {
		return fmt.Errorf("spill: batch of %d bytes exceeds the frame size", len(r.buf)-4)
	}
	binary.LittleEndian.PutUint32(r.buf, uint32(len(r.buf)-4))
	return r.t.write(r.buf)
}

// Finish flushes the run and prepares it for reading.
func (r *Run) Finish() error { return r.t.finish() }

var errCorrupt = errors.New("spill: corrupt run")

// ReadCols reads the next batch; it returns (nil, 0, nil) at the end of
// the run. Returned vectors are freshly allocated and owned by the
// caller; the strings of one column share one allocation.
func (r *Run) ReadCols() ([]*vector.Vec, int, error) {
	if err := fault.Failure(fault.PointSpillRead); err != nil {
		return nil, 0, fmt.Errorf("spill: read: %w", err)
	}
	var pre [4]byte
	if _, err := io.ReadFull(r.t.r, pre[:]); err != nil {
		if err == io.EOF {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	size := int64(binary.LittleEndian.Uint32(pre[:]))
	r.read += 4
	if size < 6 || size > r.t.bytes-r.read {
		return nil, 0, errCorrupt
	}
	r.buf = slices.Grow(r.buf[:0], int(size))[:size]
	if _, err := io.ReadFull(r.t.r, r.buf); err != nil {
		return nil, 0, err
	}
	r.read += size
	return decodeCols(r.buf)
}

// decodeCols decodes one batch (without its size prefix). Every length
// the bytes declare is checked against the bytes left before anything is
// allocated for it, so a corrupt batch costs at most a fixed multiple of
// its own size.
func decodeCols(p []byte) ([]*vector.Vec, int, error) {
	n := int(binary.LittleEndian.Uint32(p))
	ncols := int(binary.LittleEndian.Uint16(p[4:]))
	p = p[6:]
	// A column takes two header bytes and at least one payload byte a row.
	if n <= 0 || 2*ncols > len(p) || (ncols > 0 && n > len(p)) {
		return nil, 0, errCorrupt
	}
	words := (n + 63) / 64
	cols := make([]*vector.Vec, ncols)
	for c := range cols {
		if len(p) < 2 {
			return nil, 0, errCorrupt
		}
		kind, hasNulls := types.Kind(p[0]), p[1] != 0
		p = p[2:]
		width := 8
		switch kind {
		case types.KindBool:
			width = 1
		case types.KindString:
			width = 4
		case types.KindInt, types.KindDate, types.KindFloat:
		default:
			return nil, 0, fmt.Errorf("%w (kind %d)", errCorrupt, kind)
		}
		need := width * n
		if hasNulls {
			need += 8 * words
		}
		if need > len(p) {
			return nil, 0, errCorrupt
		}
		v := vector.NewVec(kind, n)
		if hasNulls {
			for w := range v.Nulls {
				v.Nulls[w] = binary.LittleEndian.Uint64(p[8*w:])
			}
			p = p[8*words:]
		}
		switch kind {
		case types.KindBool:
			for i := range v.B {
				v.B[i] = p[i] != 0
			}
		case types.KindInt, types.KindDate:
			for i := range v.I {
				v.I[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
			}
		case types.KindFloat:
			for i := range v.F {
				v.F[i] = unmath64(binary.LittleEndian.Uint64(p[8*i:]))
			}
		case types.KindString:
			lens := p[:4*n]
			total := 0
			for i := 0; i < n; i++ {
				total += int(binary.LittleEndian.Uint32(lens[4*i:]))
				if total > len(p)-4*n {
					return nil, 0, errCorrupt
				}
			}
			all := string(p[4*n : 4*n+total])
			for i := range v.S {
				ln := int(binary.LittleEndian.Uint32(lens[4*i:]))
				v.S[i], all = all[:ln], all[ln:]
			}
			p = p[total:]
		}
		p = p[width*n:]
		cols[c] = v
	}
	if len(p) != 0 {
		return nil, 0, errCorrupt
	}
	return cols, n, nil
}

// Close releases the run's file (the storage was unlinked at creation).
func (r *Run) Close() error {
	if r == nil {
		return nil
	}
	return r.t.close()
}

// ---------------------------------------------------------------------------
// Row run codec (row engine's external sort)
//
// Each row is encoded as u16 ncols, then per value u8 kind, u8 null and
// the payload for non-NULL values: a bool's byte, a string's u32 length
// and bytes, and I for every other kind (a float's bits, an interval's
// months and days). The reader rejects an unknown kind and a string
// longer than the whole run, so a damaged file is an error, not a panic
// or a huge allocation.

// RowRun is one spill run of encoded rows.
type RowRun struct {
	t    *tempFile
	rows int64
	buf  []byte
}

// NewRowRun creates a row run file under dir.
func NewRowRun(dir string) (*RowRun, error) {
	t, err := newTempFile(dir)
	if err != nil {
		return nil, err
	}
	return &RowRun{t: t}, nil
}

// Rows returns the number of rows written so far.
func (r *RowRun) Rows() int64 { return r.rows }

// Bytes returns the encoded size written so far.
func (r *RowRun) Bytes() int64 { return r.t.bytes }

// WriteRow appends one row.
func (r *RowRun) WriteRow(row types.Row) error {
	r.rows++
	r.buf = binary.LittleEndian.AppendUint16(r.buf[:0], uint16(len(row)))
	for _, v := range row {
		r.buf = append(r.buf, byte(v.K))
		if v.Null {
			r.buf = append(r.buf, 1)
			continue
		}
		r.buf = append(r.buf, 0)
		switch v.K {
		case types.KindBool:
			if v.B {
				r.buf = append(r.buf, 1)
			} else {
				r.buf = append(r.buf, 0)
			}
		case types.KindString:
			s := v.Str()
			r.buf = binary.LittleEndian.AppendUint32(r.buf, uint32(len(s)))
			r.buf = append(r.buf, s...)
		default: // int, float (its bits), date, interval, untyped nulls carry I
			r.buf = binary.LittleEndian.AppendUint64(r.buf, uint64(v.I))
		}
	}
	return r.t.write(r.buf)
}

// Finish flushes the run and prepares it for reading.
func (r *RowRun) Finish() error { return r.t.finish() }

// ReadRow reads the next row; it returns (nil, nil) at the end.
func (r *RowRun) ReadRow() (types.Row, error) {
	if err := fault.Failure(fault.PointSpillRead); err != nil {
		return nil, fmt.Errorf("spill: read: %w", err)
	}
	var b [8]byte
	if _, err := io.ReadFull(r.t.r, b[:2]); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, err
	}
	ncols := int(binary.LittleEndian.Uint16(b[:2]))
	row := make(types.Row, ncols)
	for i := 0; i < ncols; i++ {
		if _, err := io.ReadFull(r.t.r, b[:2]); err != nil {
			return nil, err
		}
		v := types.Value{K: types.Kind(b[0])}
		if v.K > types.KindInterval {
			return nil, fmt.Errorf("spill: row run: unknown value kind %d", b[0])
		}
		if b[1] != 0 {
			v.Null = true
			row[i] = v
			continue
		}
		switch v.K {
		case types.KindBool:
			c, err := r.t.r.ReadByte()
			if err != nil {
				return nil, err
			}
			v.B = c != 0
		case types.KindString:
			if _, err := io.ReadFull(r.t.r, b[:4]); err != nil {
				return nil, err
			}
			n := int64(binary.LittleEndian.Uint32(b[:4]))
			if n > r.t.bytes {
				return nil, fmt.Errorf("spill: row run: a string of %d bytes in a run of %d", n, r.t.bytes)
			}
			sb := make([]byte, n)
			if _, err := io.ReadFull(r.t.r, sb); err != nil {
				return nil, err
			}
			v.SetString(string(sb))
		default:
			if _, err := io.ReadFull(r.t.r, b[:8]); err != nil {
				return nil, err
			}
			v.I = int64(binary.LittleEndian.Uint64(b[:8]))
		}
		row[i] = v
	}
	return row, nil
}

// Close releases the run's file.
func (r *RowRun) Close() error {
	if r == nil {
		return nil
	}
	return r.t.close()
}
