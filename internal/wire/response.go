package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"perm/internal/types"
)

// The binary Response body. The package comment has the layout; bodySize,
// appendBody and decodeResponse are its three readings and must agree.

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func stringSize(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// bodySize returns the exact length of the encoded body, so that Encode
// can refuse an oversized result before writing a byte of it and grow the
// frame buffer once. It rejects rows that do not match Columns, which the
// layout cannot express.
func (r *Response) bodySize() (int, error) {
	n := 1 + stringSize(r.Err) + stringSize(r.Code) + uvarintLen(uint64(r.Affected)) + stringSize(r.Plan) +
		uvarintLen(uint64(len(r.Columns))) + uvarintLen(uint64(len(r.Prov))) + len(r.Prov) +
		uvarintLen(uint64(len(r.Rows)))
	for _, c := range r.Columns {
		n += stringSize(c)
	}
	for i, row := range r.Rows {
		if len(row) != len(r.Columns) || len(row) == 0 {
			return 0, fmt.Errorf("wire: row %d has %d values for %d columns", i, len(row), len(r.Columns))
		}
		for j := range row {
			switch v := &row[j]; {
			case v.Null || v.K == types.KindNull:
				n++
			case v.K == types.KindBool:
				n += 2
			case v.K == types.KindString:
				n += 1 + stringSize(v.Str())
			default:
				n += 9
			}
		}
	}
	return n, nil
}

// appendBody appends the encoded body to b.
func (r *Response) appendBody(b []byte) []byte {
	b = append(b, flag(r.OK))
	b = appendString(b, r.Err)
	b = appendString(b, r.Code)
	b = binary.AppendUvarint(b, uint64(r.Affected))
	b = appendString(b, r.Plan)
	b = binary.AppendUvarint(b, uint64(len(r.Columns)))
	for _, c := range r.Columns {
		b = appendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Prov)))
	for _, p := range r.Prov {
		b = append(b, flag(p))
	}
	b = binary.AppendUvarint(b, uint64(len(r.Rows)))
	for _, row := range r.Rows {
		for j := range row {
			v := &row[j]
			tag := byte(v.K) << 1
			switch {
			case v.Null || v.K == types.KindNull:
				b = append(b, tag|flag(v.Null))
			case v.K == types.KindBool:
				b = append(b, tag, flag(v.B))
			case v.K == types.KindString:
				if s := v.Str(); len(s) < 0x80 {
					b = append(append(b, tag, byte(len(s))), s...)
				} else {
					b = appendString(append(b, tag), s)
				}
			default: // bigint, double (its bits), date, interval
				b = binary.BigEndian.AppendUint64(append(b, tag), uint64(v.I))
			}
		}
	}
	return b
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decoder walks a Response body. The first malformed field sets err;
// from then on every read returns zero and consumes nothing, so callers
// check err once per group of reads. Counts are checked against the
// bytes left before anything is allocated from them.
type decoder struct {
	b   []byte
	s   string // b as a string: every decoded string is a substring of it
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: bad response: %s at byte %d of %d", what, d.off, len(d.b))
	}
}

// take returns the next n bytes, or nil after failing.
func (d *decoder) take(n int) []byte {
	if d.err != nil || n > len(d.b)-d.off {
		d.fail("truncated")
		return nil
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

func (d *decoder) byte() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

// flag reads a byte that must be 0 or 1.
func (d *decoder) flag() bool {
	c := d.byte()
	if c > 1 {
		d.fail("flag byte is not 0 or 1")
	}
	return c == 1
}

func (d *decoder) uint64() uint64 {
	if p := d.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n <= 0:
		d.fail("truncated or overlong integer")
		return 0
	case n > 1 && d.b[d.off+n-1] == 0:
		d.fail("integer is not in its shortest form")
		return 0
	}
	d.off += n
	return x
}

// count reads the number of items that follow. Every item takes at least
// one byte, so a count beyond the bytes left is malformed.
func (d *decoder) count() int {
	x := d.uvarint()
	if x > uint64(len(d.b)-d.off) {
		d.fail("count exceeds the bytes that follow")
		return 0
	}
	return int(x)
}

func (d *decoder) str() string {
	n := d.count()
	d.off += n
	return d.s[d.off-n : d.off]
}

func (d *decoder) value(v *types.Value) {
	tag := d.byte()
	v.K, v.Null = types.Kind(tag>>1), tag&1 != 0
	switch {
	case v.K > types.KindInterval:
		d.fail("unknown value kind")
	case v.Null || v.K == types.KindNull:
	case v.K == types.KindBool:
		v.B = d.flag()
	case v.K == types.KindString:
		v.SetString(d.str())
	default:
		v.I = int64(d.uint64())
	}
}

// values decodes len(vals) values: the loop that dominates decoding a
// result. The common encodings (a NULL, a fixed-width value, a string
// shorter than 128 bytes) are read in line over a local cursor; anything
// else, malformed input included, goes through value, which checks every
// field and reports the first error.
func (d *decoder) values(vals []types.Value) {
	b, s, off := d.b, d.s, d.off
	for i := range vals {
		v := &vals[i]
		if off < len(b) {
			tag := b[off]
			k := types.Kind(tag >> 1)
			switch {
			case k > types.KindInterval:
			case tag&1 != 0 || k == types.KindNull:
				v.K, v.Null = k, tag&1 != 0
				off++
				continue
			case k == types.KindString:
				if off+1 < len(b) && b[off+1] < 0x80 && off+2+int(b[off+1]) <= len(b) {
					end := off + 2 + int(b[off+1])
					v.SetString(s[off+2 : end])
					off = end
					continue
				}
			case k != types.KindBool:
				if off+9 <= len(b) {
					v.K, v.I = k, int64(binary.BigEndian.Uint64(b[off+1:]))
					off += 9
					continue
				}
			}
		}
		d.off = off
		if d.value(v); d.err != nil {
			return
		}
		off = d.off
	}
	d.off = off
}

// decodeResponse decodes one Response body. It allocates a constant
// number of objects whatever the result size: the values are one slab
// sliced into rows, the strings substrings of body itself. They alias
// body without a copy because body is the frame ReadResponse allocated
// for this one response, and nothing writes to it again.
func decodeResponse(body []byte) (*Response, error) {
	d := &decoder{b: body, s: unsafe.String(unsafe.SliceData(body), len(body))}
	resp := &Response{OK: d.flag()}
	resp.Err, resp.Code = d.str(), d.str()
	resp.Affected = int(d.uvarint())
	resp.Plan = d.str()
	if n := d.count(); n > 0 {
		resp.Columns = make([]string, n)
		for i := range resp.Columns {
			resp.Columns[i] = d.str()
		}
	}
	if n := d.count(); n > 0 {
		resp.Prov = make([]bool, n)
		for i := range resp.Prov {
			resp.Prov[i] = d.flag()
		}
	}
	nrows, ncols := d.count(), len(resp.Columns)
	if nrows > 0 && (ncols == 0 || nrows > (len(body)-d.off)/ncols) {
		d.fail("more values than bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	if nrows > 0 {
		vals := make([]types.Value, nrows*ncols)
		if d.values(vals); d.err != nil {
			return nil, d.err
		}
		resp.Rows = make([][]types.Value, nrows)
		for i := range resp.Rows {
			resp.Rows[i] = vals[i*ncols : (i+1)*ncols : (i+1)*ncols]
		}
	}
	if d.off != len(body) {
		d.fail("trailing bytes")
		return nil, d.err
	}
	return resp, nil
}
