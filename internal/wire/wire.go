// Package wire defines the permd client/server protocol: length-prefixed
// frames, a JSON Request and a binary Response.
//
// Every message on the connection is one frame:
//
//	uint32 big-endian body length | body
//
// The client sends a Request and reads exactly one Response; requests on
// one connection are processed in order (pipelining is permitted, the
// server answers in receive order). A request is a statement: EXEC
// carries its text, and the server's session routes it as the statement
// itself says (a query, EXPLAIN, PREPARE, SET, DML, ...). Only PING and
// CANCEL are no statements. A Request body is a small JSON object (three
// short strings). A Response body is binary, all integers big-endian,
// "string" meaning a uvarint byte length followed by the bytes:
//
//	byte     flags: bit 0 = OK, every other bit zero
//	string   Err
//	string   Code
//	uvarint  Affected
//	uvarint  column count, then one string per column name
//	uvarint  provenance-flag count, then one byte (0 or 1) per flag
//	uvarint  row count
//	values   rows x columns of them, row-major
//
// and a value is one tag byte, kind<<1 | null, followed by its payload:
//
//	NULL of any kind, and kind null   no payload (a NULL keeps its kind)
//	boolean                           1 byte, 0 or 1
//	bigint, date, interval            8 bytes, two's complement
//	double                            8 bytes, IEEE-754 bits (so NaN and
//	                                  the infinities travel like any other)
//	text                              string
//
// A value therefore takes 1 to 9 bytes plus its text, against MaxFrame
// (64 MiB) for the body: a reply holds well over 4 million values — Fig. 10
// Q1 as q+ at SF 0.02, 118k rows of 26 columns, fits — and a larger one is
// answered with a CodeTooLarge error frame. Every field has exactly one
// encoding (uvarints are minimal, no trailing bytes), so re-encoding a
// decoded frame reproduces it byte for byte. Values travel as the engine's
// typed values and the client re-renders a result byte-identically to an
// embedded Database.
//
// There is one protocol: no JSON response path, no version field and no
// negotiation. Server and clients are built from the same tree.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"perm/internal/obs"
	"perm/internal/types"
)

// MaxFrame bounds a single frame body (64 MiB) so a corrupt or malicious
// length prefix cannot make either side allocate unboundedly.
const MaxFrame = 64 << 20

// ErrTooLarge marks the error of encoding a message whose body would
// exceed MaxFrame.
var ErrTooLarge = errors.New("wire: frame limit exceeded")

// readAhead is the most ReadFrame allocates before the body bytes a
// header announced have actually arrived.
const readAhead = 1 << 20

// Request operations.
const (
	// OpExec runs SQL, one statement or script of the service dialect
	// (session.Run), and answers with its rows or its affected count.
	OpExec = "EXEC"
	OpPing = "PING" // liveness check

	// OpCancel requests cooperative cancellation of the in-flight query
	// whose engine query ID (as shown in perm_stat_activity) is in Name.
	// Like PING it is handled out of band — it never waits behind the
	// server's worker slots, so a saturated server can still cancel.
	OpCancel = "CANCEL"
)

// Request is one client command.
type Request struct {
	Op   string `json:"op"`
	SQL  string `json:"sql,omitempty"`  // statement text (EXEC)
	Name string `json:"name,omitempty"` // query ID (CANCEL)
}

// Error codes carried by Response.Code on failure frames. The engine
// codes mirror obs (cancellation, statement timeout); the server codes
// describe the service itself. Clients switch on the code — never on
// message text — to decide whether an operation is worth retrying.
const (
	CodeCancelled = obs.CodeCancelled // query cancelled by explicit request
	CodeTimeout   = obs.CodeTimeout   // query exceeded its statement timeout

	// CodeOverloaded: the server's worker slots and admission queue are
	// full; the request was shed without being executed. Retry after
	// backing off.
	CodeOverloaded = "overloaded"
	// CodeDraining: the server is shutting down and no longer accepts
	// work; the request was not executed. Retry against another server
	// (or the same one after it restarts).
	CodeDraining = "draining"
	// CodeInternal: the statement crashed inside the engine (a recovered
	// panic). The statement did not complete; the connection survives.
	CodeInternal = "internal"
	// CodeTooLarge: the statement ran, but its result does not fit one
	// frame (MaxFrame). Retrying cannot help; ask for less.
	CodeTooLarge = "result_too_large"
)

// Retryable reports whether a response code marks a request the server
// rejected without executing it — safe to retry verbatim, even for
// non-idempotent statements.
func Retryable(code string) bool {
	return code == CodeOverloaded || code == CodeDraining
}

// Response is the server's answer to one Request.
type Response struct {
	OK   bool
	Err  string // set when !OK
	Code string // machine-readable error class, see Code* consts

	// Result payload: the rows of a statement that returns them (Columns
	// non-nil, also with zero rows), else the rows it affected. Every row
	// has len(Columns) values.
	Columns  []string
	Prov     []bool
	Rows     [][]types.Value
	Affected int
}

// Encode returns v, a *Request or a *Response, as one complete
// length-prefixed frame. It fails without producing bytes when the body
// would exceed MaxFrame (an error wrapping ErrTooLarge), so a caller can
// substitute an error frame instead of abandoning the connection.
func Encode(v any) ([]byte, error) {
	return AppendFrame(nil, v)
}

// AppendFrame appends v's frame to dst, which lets a caller that writes
// many frames reuse one buffer. On error dst is returned unchanged.
func AppendFrame(dst []byte, v any) ([]byte, error) {
	start := len(dst)
	switch v := v.(type) {
	case *Response:
		n, err := v.bodySize()
		if err != nil {
			return dst, err
		}
		if n > MaxFrame {
			return dst, fmt.Errorf("%w: result of %d rows by %d columns takes %d bytes, limit %d",
				ErrTooLarge, len(v.Rows), len(v.Columns), n, MaxFrame)
		}
		dst = v.appendBody(append(slices.Grow(dst, 4+n), 0, 0, 0, 0))
	case *Request:
		body, err := json.Marshal(v)
		if err != nil {
			return dst, err
		}
		if len(body) > MaxFrame {
			return dst, fmt.Errorf("%w: request takes %d bytes, limit %d", ErrTooLarge, len(body), MaxFrame)
		}
		dst = append(append(dst, 0, 0, 0, 0), body...)
	default:
		return dst, fmt.Errorf("wire: cannot encode %T", v)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst, nil
}

// WriteFrame encodes v and writes it as one length-prefixed frame.
func WriteFrame(w io.Writer, v any) error {
	frame, err := Encode(v)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed frame body. The length is the
// sender's claim, so at most readAhead bytes are allocated before body
// bytes arrive and the buffer then doubles as they do: a peer that sends
// a header and nothing else pins 1 MiB, not MaxFrame.
func ReadFrame(r io.Reader) ([]byte, error) {
	return readFrame(r, readAhead)
}

// readFrame is ReadFrame with the up-front allocation capped at upfront.
func readFrame(r io.Reader, upfront int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, min(n, upfront))
	for read := 0; ; {
		if _, err := io.ReadFull(r, body[read:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised these bytes
			}
			return nil, err
		}
		if read = len(body); read == n {
			return body, nil
		}
		body = append(body, make([]byte, min(n-read, read))...)
	}
}

// ReadRequest reads and decodes one Request frame.
func ReadRequest(r io.Reader) (*Request, error) {
	body, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("wire: bad request: %v", err)
	}
	return &req, nil
}

// ReadResponse reads and decodes one Response frame. The body is read
// into a single allocation of the announced length: the length comes
// from the server the client chose to connect to.
func ReadResponse(r io.Reader) (*Response, error) {
	body, err := readFrame(r, MaxFrame)
	if err != nil {
		return nil, err
	}
	return decodeResponse(body)
}

// ErrorResponse builds the failure Response for err, carrying the
// engine's structured error code when err is (or wraps) one, and
// CodeTooLarge when it is Encode refusing an oversized result.
func ErrorResponse(err error) *Response {
	resp := &Response{Err: err.Error()}
	var qe *obs.QueryError
	if errors.As(err, &qe) {
		resp.Code = qe.Code
	} else if errors.Is(err, ErrTooLarge) {
		resp.Code = CodeTooLarge
	}
	return resp
}

// ErrorResponseCode builds a failure Response with an explicit
// server-level code (overloaded, draining, internal).
func ErrorResponseCode(code, msg string) *Response {
	return &Response{Err: msg, Code: code}
}
