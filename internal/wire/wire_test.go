package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"perm/internal/types"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpQuery, SQL: "SELECT PROVENANCE name FROM shop"},
		{Op: OpExec, SQL: "INSERT INTO shop VALUES ('Aldi', 9)"},
		{Op: OpPrepare, Name: "q1", SQL: "SELECT 1"},
		{Op: OpExecute, Name: "q1"},
		{Op: OpExplain, SQL: "SELECT 1"},
		{Op: OpSet, Name: "disable_vectorized", SQL: "on"},
		{Op: OpPing},
	}
	var buf bytes.Buffer
	for _, r := range reqs {
		if err := WriteFrame(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range reqs {
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestResponseRoundTripTypedValues(t *testing.T) {
	want := &Response{
		OK:      true,
		Columns: []string{"name", "n", "f", "d", "b", "nul"},
		Prov:    []bool{false, false, false, false, false, true},
		Rows: [][]types.Value{{
			types.NewString("Merdies"),
			types.NewInt(3),
			types.NewFloat(2.5),
			types.NewDate(19000),
			types.NewBool(true),
			types.NewNull(types.KindInt),
		}},
		Affected: 1,
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !identical(got, want) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
	// Typed values must render identically after the trip.
	for i, v := range got.Rows[0] {
		if v.String() != want.Rows[0][i].String() {
			t.Fatalf("value %d renders %q, want %q", i, v.String(), want.Rows[0][i].String())
		}
	}
}

// TestGoldenFrame pins the on-wire bytes of a fixed request so protocol
// changes are deliberate, not accidental.
func TestGoldenFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Request{Op: OpQuery, SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	// Requests are JSON; field order follows struct order, so the frame is
	// deterministic.
	golden := "\x00\x00\x00\x1f" + `{"op":"QUERY","sql":"SELECT 1"}`
	if got := buf.String(); got != golden {
		t.Fatalf("frame = %q, want %q", got, golden)
	}
	n := binary.BigEndian.Uint32(buf.Bytes()[:4])
	if int(n) != buf.Len()-4 {
		t.Fatalf("length prefix %d, body %d", n, buf.Len()-4)
	}
}

// goldenResponse is a fixed result with a value of every kind, a typed
// NULL of every kind, an interval, an empty string and a provenance flag.
func goldenResponse() *Response {
	return &Response{
		OK:      true,
		Columns: []string{"b", "i", "f", "s", "d", "iv", "prov_t_s"},
		Prov:    []bool{false, false, false, false, false, false, true},
		Rows: [][]types.Value{
			{types.NewBool(true), types.NewInt(-7), types.NewFloat(2.5), types.NewString("Merdies"),
				types.NewDate(19000), types.NewInterval(1, -2), types.NewString("")},
			{types.NewNull(types.KindBool), types.NewNull(types.KindInt), types.NewNull(types.KindFloat),
				types.NewNull(types.KindString), types.NewNull(types.KindDate), types.NewNull(types.KindInterval),
				types.NullValue},
		},
	}
}

// goldenResponseFrame is goldenResponse on the wire: the length prefix,
// the header fields, then fourteen values of a tag byte and a payload.
const goldenResponseFrame = "\x00\x00\x00\x5d" + // body length
	"\x01\x00\x00\x00\x00" + // OK, no Err, no Code, Affected 0, no Plan
	"\x07\x01b\x01i\x01f\x01s\x01d\x02iv\x08prov_t_s" + // seven column names
	"\x07\x00\x00\x00\x00\x00\x00\x01" + // seven provenance flags
	"\x02" + // two rows
	"\x02\x01" + // boolean true
	"\x04\xff\xff\xff\xff\xff\xff\xff\xf9" + // bigint -7
	"\x06\x40\x04\x00\x00\x00\x00\x00\x00" + // double 2.5
	"\x08\x07Merdies" + // text
	"\x0a\x00\x00\x00\x00\x00\x00\x4a\x38" + // date, day 19000
	"\x0c\x00\x00\x00\x01\xff\xff\xff\xfe" + // interval of 1 month, -2 days
	"\x08\x00" + // empty text
	"\x03\x05\x07\x09\x0b\x0d\x01" // NULL boolean, bigint, double, text, date, interval, untyped

// TestGoldenResponseFrame pins the on-wire bytes of a fixed result, so a
// layout change is deliberate: server and clients must move together.
func TestGoldenResponseFrame(t *testing.T) {
	want := goldenResponse()
	frame, err := Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(frame) != goldenResponseFrame {
		t.Fatalf("frame = %q, want %q", frame, goldenResponseFrame)
	}
	got, err := ReadResponse(strings.NewReader(goldenResponseFrame))
	if err != nil {
		t.Fatal(err)
	}
	if !identical(got, want) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", got, want)
	}
	if n, _ := want.bodySize(); n != len(frame)-4 {
		t.Fatalf("bodySize %d, encoded body %d", n, len(frame)-4)
	}
}

// TestResponseShapes: the replies that carry no rows keep what tells
// them apart after a round trip.
func TestResponseShapes(t *testing.T) {
	for _, want := range []*Response{
		{OK: true},
		{OK: true, Affected: 3},
		{OK: true, Plan: "Scan shop\n"},
		{OK: true, Columns: []string{"name"}, Prov: []bool{false}}, // zero-row SELECT
		{Err: "boom", Code: CodeInternal},
		{OK: true, Columns: []string{"f"}, Rows: [][]types.Value{
			{types.NewFloat(math.Inf(1))}, {types.NewFloat(math.Inf(-1))}, {types.NewFloat(math.Copysign(0, -1))},
			{types.NewFloat(math.NaN())}, {types.NewFloat(math.SmallestNonzeroFloat64)}, {types.NewFloat(math.MaxFloat64)}}},
		// Strings either side of the one-byte length, with NUL and
		// multi-byte characters, beside a NULL string.
		{OK: true, Columns: []string{"s"}, Rows: [][]types.Value{
			{types.NewString("")}, {types.NewString("\x00")}, {types.NewString(strings.Repeat("x", 127))},
			{types.NewString(strings.Repeat("y", 128))}, {types.NewString(strings.Repeat("grüße€", 5000))},
			{types.NewNull(types.KindString)}}},
	} {
		frame, err := Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadResponse(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		if !identical(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// identical reports whether two responses are the same: every field
// deeply equal and every value types.Identical (reflect.DeepEqual would
// compare only the first byte of a string value).
func identical(a, b *Response) bool {
	ar, br := *a, *b
	ar.Rows, br.Rows = nil, nil
	if !reflect.DeepEqual(ar, br) || len(a.Rows) != len(b.Rows) || (a.Rows == nil) != (b.Rows == nil) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) || (a.Rows[i] == nil) != (b.Rows[i] == nil) {
			return false
		}
		for j := range a.Rows[i] {
			if !types.Identical(a.Rows[i][j], b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestEncodeRejects(t *testing.T) {
	ragged := &Response{OK: true, Columns: []string{"a", "b"}, Rows: [][]types.Value{{types.NewInt(1)}}}
	if _, err := Encode(ragged); err == nil || errors.Is(err, ErrTooLarge) {
		t.Fatalf("ragged row: %v", err)
	}
	if _, err := Encode(Response{OK: true}); err == nil {
		t.Fatal("only *Request and *Response encode")
	}
	// 65 rows sharing one 1 MiB string: refused from the sizes alone.
	big := strings.Repeat("x", 1<<20)
	huge := &Response{OK: true, Columns: []string{"s"}}
	for i := 0; i < 65; i++ {
		huge.Rows = append(huge.Rows, []types.Value{types.NewString(big)})
	}
	frame, err := AppendFrame([]byte("kept"), huge)
	if !errors.Is(err, ErrTooLarge) || string(frame) != "kept" {
		t.Fatalf("oversized result: %q, %v", frame, err)
	}
	if resp := ErrorResponse(err); resp.Code != CodeTooLarge || Retryable(resp.Code) {
		t.Fatalf("oversized result answers with code %q", resp.Code)
	}
}

// TestHeaderOnlyFrame: a peer that sends a header claiming MaxFrame and
// then nothing must not make ReadFrame allocate MaxFrame.
func TestHeaderOnlyFrame(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	var err error
	got := allocated(func() { _, err = ReadFrame(bytes.NewReader(hdr[:])) })
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header-only frame: %v", err)
	}
	if got > 2*readAhead {
		t.Fatalf("header-only frame allocated %d bytes", got)
	}
}

// TestFrameGrowsAsBytesArrive: a body larger than the up-front
// allocation arrives intact, in one piece or byte by byte.
func TestFrameGrowsAsBytesArrive(t *testing.T) {
	body := make([]byte, 3*readAhead+17)
	for i := range body {
		body[i] = byte(i * 7)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)
	for _, r := range []io.Reader{bytes.NewReader(frame), iotest.OneByteReader(bytes.NewReader(frame))} {
		got, err := ReadFrame(r)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("read %d bytes, %v; want %d", len(got), err, len(body))
		}
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadFrame(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("truncated body must fail")
	}
	if _, err := ReadFrame(bytes.NewReader(b[:2])); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated header: %v", err)
	}
}

func TestBadJSONRejected(t *testing.T) {
	var buf bytes.Buffer
	body := []byte(`{"op":`)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, err := ReadRequest(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("bad JSON must fail")
	}
}
