package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// frameOf prefixes body with its length, as a peer that frames honestly
// but fills the body with anything would.
func frameOf(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// allocated returns the heap bytes f allocated. Fuzz workers and plain
// test runs both call the target from one goroutine at a time.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what decoding n input bytes may allocate: a value takes
// at least one byte on the wire and 48 in memory, a one-value row 24 more
// for its slice header, and the body is copied once on reading and once
// for the strings. The constant covers the fixed objects and whatever the
// test harness allocates on the side.
func allocBound(n int) uint64 { return uint64(100*n) + 256<<10 }

// rowBomb is a 20-byte body that claims 2^31 rows of one column.
var rowBomb = append([]byte("\x01\x00\x00\x00\x00\x01\x01c\x01\x00\x80\x80\x80\x80\x08"), 3, 3, 3, 3, 3)

// TestRowCountBeyondBytesRejected: the row count is the sender's claim
// and is checked against the bytes present before the slab is made.
func TestRowCountBeyondBytesRejected(t *testing.T) {
	var err error
	got := allocated(func() { _, err = ReadResponse(bytes.NewReader(frameOf(rowBomb))) })
	if err == nil || !strings.Contains(err.Error(), "count exceeds") {
		t.Fatalf("2^31 rows in %d bytes: %v", len(rowBomb), err)
	}
	if got > 4<<10 {
		t.Fatalf("rejecting %d bytes allocated %d", len(rowBomb), got)
	}
}

// FuzzReadResponse feeds the response decoder arbitrary bodies behind an
// honest length prefix (the client reads the announced length in one
// allocation, so a lying prefix is the server's to answer for). It must
// never panic, never allocate more than a small multiple of the input,
// and every frame it accepts must re-encode to exactly the same bytes:
// the layout has one encoding per Response.
func FuzzReadResponse(f *testing.F) {
	golden := []byte(goldenResponseFrame)[4:]
	for i := 0; i <= len(golden); i++ {
		f.Add(golden[:i])
	}
	f.Add(rowBomb)
	for _, r := range []*Response{
		{OK: true},
		{OK: true, Affected: 1 << 40},
		{OK: true, Plan: "Scan shop\n"},
		{Err: "boom", Code: CodeInternal},
		{OK: true, Columns: []string{"name"}, Prov: []bool{true}},
	} {
		frame, err := Encode(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		frame := frameOf(body)
		var resp *Response
		var err error
		if got := allocated(func() { resp, err = ReadResponse(bytes.NewReader(frame)) }); got > allocBound(len(frame)) {
			t.Fatalf("decoding %d bytes allocated %d", len(frame), got)
		}
		if err != nil {
			return
		}
		again, err := Encode(resp)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("not a fixpoint:\nread    %q\nencoded %q", frame, again)
		}
		if n, _ := resp.bodySize(); n != len(body) {
			t.Fatalf("bodySize %d for a body of %d bytes", n, len(body))
		}
	})
}

// FuzzReadRequest does the same for the server's side of the boundary,
// where the prefix is not trusted either, so the input is also read as a
// raw byte stream: no panic, bounded allocation, and an accepted request
// survives a trip through Encode.
func FuzzReadRequest(f *testing.F) {
	golden := []byte(`{"op":"QUERY","sql":"SELECT 1","name":"q1"}`)
	for i := 0; i <= len(golden); i++ {
		f.Add(golden[:i])
	}
	f.Add([]byte(`{"op":"PING"}`))
	f.Add([]byte(`{"op":7}`))
	f.Add([]byte(`[[[[[[[[[[[[[[[[`))
	f.Fuzz(func(t *testing.T, body []byte) {
		frame := frameOf(body)
		var req *Request
		var err error
		if got := allocated(func() { req, err = ReadRequest(bytes.NewReader(frame)) }); got > allocBound(len(frame)) {
			t.Fatalf("decoding %d bytes allocated %d", len(frame), got)
		}
		ReadRequest(bytes.NewReader(body)) //nolint:errcheck — only must not panic
		if err != nil {
			return
		}
		again, err := Encode(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		back, err := ReadRequest(bytes.NewReader(again))
		if err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("request %+v came back as %+v, %v", req, back, err)
		}
	})
}
