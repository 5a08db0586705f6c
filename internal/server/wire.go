package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"

	"doppel"
)

// The wire protocol is a stream of length-prefixed frames in each
// direction. Every frame is a 4-byte big-endian payload length followed
// by the payload; payloads use varint-encoded fields (the same style as
// internal/store's codec) so small requests stay small.
//
// Request payload:
//
//	uvarint  request ID (echoed in the response; unique per connection)
//	uvarint  procedure name length, then the name bytes
//	uvarint  argument count
//	args     each: 1 tag byte, then a tag-specific payload
//
// Response payload:
//
//	uvarint  request ID
//	byte     status (statusOK, statusErr, statusUnknownProc)
//	body     statusOK: one typed result arg; otherwise an error message
//	         (uvarint length + bytes)
//
// Because requests carry IDs, responses may be written in any order: a
// client keeps many requests in flight on one connection and matches
// responses by ID.

// DefaultMaxFrame bounds a frame payload unless Options override it. A
// peer announcing a larger frame is rejected before any allocation.
const DefaultMaxFrame = 1 << 20

// maxArgs bounds the argument count of one request.
const maxArgs = 1 << 16

// Response status codes. The typed error statuses carry a doppel
// sentinel across the wire: the body is still the full error message,
// but the client rebuilds an error that errors.Is-matches the sentinel,
// so remote callers branch on ErrClosed and friends exactly as embedded
// callers do.
const (
	statusOK                  = 0 // body is the typed result
	statusErr                 = 1 // body is the handler's error message
	statusUnknownProc         = 2 // body is the unregistered procedure name
	statusErrClosed           = 3 // body wraps doppel.ErrClosed
	statusErrRequiresRedoLog  = 4 // body wraps doppel.ErrRequiresRedoLog
	statusErrLogExists        = 5 // body wraps doppel.ErrLogExists
	statusErrReadOnly         = 6 // body wraps doppel.ErrReadOnly
	statusErrOverloaded       = 7 // body wraps doppel.ErrOverloaded
	statusErrRetriesExhausted = 8 // body wraps doppel.ErrRetriesExhausted
)

// statusForError picks the response status for a handler failure,
// promoting recognized sentinels to their typed codes.
func statusForError(err error) byte {
	switch {
	case errors.Is(err, doppel.ErrClosed):
		return statusErrClosed
	case errors.Is(err, doppel.ErrRequiresRedoLog):
		return statusErrRequiresRedoLog
	case errors.Is(err, doppel.ErrLogExists):
		return statusErrLogExists
	case errors.Is(err, doppel.ErrReadOnly):
		return statusErrReadOnly
	case errors.Is(err, doppel.ErrOverloaded):
		return statusErrOverloaded
	case errors.Is(err, doppel.ErrRetriesExhausted):
		return statusErrRetriesExhausted
	default:
		return statusErr
	}
}

// sentinelFor returns the doppel sentinel a typed status carries, nil
// for the untyped statuses.
func sentinelFor(status byte) error {
	switch status {
	case statusErrClosed:
		return doppel.ErrClosed
	case statusErrRequiresRedoLog:
		return doppel.ErrRequiresRedoLog
	case statusErrLogExists:
		return doppel.ErrLogExists
	case statusErrReadOnly:
		return doppel.ErrReadOnly
	case statusErrOverloaded:
		return doppel.ErrOverloaded
	case statusErrRetriesExhausted:
		return doppel.ErrRetriesExhausted
	default:
		return nil
	}
}

// remoteError is a per-call failure that arrived with a typed status:
// it reports the server's message and unwraps to the sentinel.
type remoteError struct {
	sentinel error
	msg      string
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// Argument tag bytes.
const (
	tagNil   = 0
	tagInt   = 1
	tagBytes = 2
)

// ArgKind identifies the type of an Arg.
type ArgKind uint8

// Argument kinds.
const (
	ArgNil   ArgKind = ArgKind(tagNil)   // absent value (e.g. a void result)
	ArgInt   ArgKind = ArgKind(tagInt)   // int64
	ArgBytes ArgKind = ArgKind(tagBytes) // byte string (also used for text)
)

// Arg is one typed argument or result value on the wire.
type Arg struct {
	kind ArgKind
	n    int64
	b    []byte
}

// Nil is the absent Arg (a void result).
var Nil = Arg{}

// Int returns an integer Arg.
func Int(n int64) Arg { return Arg{kind: ArgInt, n: n} }

// Str returns a byte-string Arg holding s.
func Str(s string) Arg { return Arg{kind: ArgBytes, b: []byte(s)} }

// Bytes returns a byte-string Arg holding b. The caller must not modify
// b afterwards.
func Bytes(b []byte) Arg { return Arg{kind: ArgBytes, b: b} }

// Kind reports the Arg's type.
func (a Arg) Kind() ArgKind { return a.kind }

// IsNil reports whether the Arg is absent.
func (a Arg) IsNil() bool { return a.kind == ArgNil }

// errNilInt is Int64's failure on a Nil Arg, shared so that reading a
// void reply allocates nothing.
var errNilInt = errors.New("server: nil argument where integer expected")

// Int64 returns the Arg as an int64. Byte-string args are parsed as
// decimal, so text-oriented clients (the CLI) interoperate with integer
// procedures.
func (a Arg) Int64() (int64, error) {
	switch a.kind {
	case ArgInt:
		return a.n, nil
	case ArgBytes:
		return strconv.ParseInt(string(a.b), 10, 64)
	default:
		return 0, errNilInt
	}
}

// Bytes returns the Arg's byte-string payload (nil for other kinds).
func (a Arg) Bytes() []byte { return a.b }

// String renders the Arg as text: integers in decimal, byte strings
// verbatim, nil as "".
func (a Arg) String() string {
	switch a.kind {
	case ArgInt:
		return strconv.FormatInt(a.n, 10)
	case ArgBytes:
		return string(a.b)
	default:
		return ""
	}
}

// UnknownProcedureError reports a call to a procedure the server has no
// handler for. Detect it with errors.As; the connection stays usable.
type UnknownProcedureError struct {
	Name string
}

func (e *UnknownProcedureError) Error() string {
	return "server: unknown procedure " + strconv.Quote(e.Name)
}

// FrameSizeError reports a frame whose announced payload length exceeds
// the connection's limit. The frame is rejected before any allocation
// and the connection is closed, since the stream can no longer be
// trusted.
type FrameSizeError struct {
	Size  int
	Limit int
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("server: frame of %d bytes exceeds limit %d", e.Size, e.Limit)
}

// --- framing ---

// frameReader reads length-prefixed frames into one reused buffer, so a
// connection's read side allocates nothing per frame once the buffer
// has grown to its largest frame.
type frameReader struct {
	r        *bufio.Reader
	maxFrame int
	hdr      [4]byte
	buf      []byte
}

func newFrameReader(r io.Reader, maxFrame int) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 64<<10), maxFrame: maxFrame}
}

// next returns the next frame's payload. The payload aliases the
// reader's buffer: it is valid only until the following call, so
// decoders copy out whatever outlives the frame.
func (fr *frameReader) next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if int64(n) > int64(fr.maxFrame) {
		return nil, &FrameSizeError{Size: int(n), Limit: fr.maxFrame}
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// --- payload encoding ---
//
// Every message kind has one append-style encoder, used both to encode
// straight into a connection's batch buffer (frameWriter.begin/end) and,
// where a message must outlive the batch, into a private slice.

func appendArg(buf []byte, a Arg) []byte {
	switch a.kind {
	case ArgInt:
		buf = append(buf, tagInt)
		return binary.AppendVarint(buf, a.n)
	case ArgBytes:
		buf = append(buf, tagBytes)
		buf = binary.AppendUvarint(buf, uint64(len(a.b)))
		return append(buf, a.b...)
	default:
		return append(buf, tagNil)
	}
}

// readArg decodes one argument. A byte-string payload is copied out of
// buf: the caller owns it (a handler may store it with tx.PutBytes), so
// it must never alias a reused read buffer.
func readArg(buf []byte) (Arg, []byte, error) {
	if len(buf) < 1 {
		return Nil, nil, errors.New("server: truncated argument tag")
	}
	tag := buf[0]
	buf = buf[1:]
	switch tag {
	case tagNil:
		return Nil, buf, nil
	case tagInt:
		n, w := binary.Varint(buf)
		if w <= 0 {
			return Nil, nil, errors.New("server: bad integer argument")
		}
		return Int(n), buf[w:], nil
	case tagBytes:
		l, w := binary.Uvarint(buf)
		if w <= 0 || l > uint64(len(buf)-w) {
			return Nil, nil, errors.New("server: truncated byte-string argument")
		}
		buf = buf[w:]
		b := make([]byte, l)
		copy(b, buf[:l])
		return Bytes(b), buf[l:], nil
	default:
		return Nil, nil, fmt.Errorf("server: unknown argument tag %d", tag)
	}
}

func appendRequest(buf []byte, id uint64, name string, args []Arg) []byte {
	buf = binary.AppendUvarint(buf, id)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(len(args)))
	for _, a := range args {
		buf = appendArg(buf, a)
	}
	return buf
}

// Request decode failures. They are shared values so the annotated
// decoder below has no allocation even on its error paths.
var (
	errTruncatedID   = errors.New("server: truncated request ID")
	errTruncatedName = errors.New("server: truncated procedure name")
	errTruncatedArgc = errors.New("server: truncated arg count")
	errTooManyArgs   = fmt.Errorf("server: request exceeds %d args", maxArgs)
)

// decodeRequest parses a request payload. name aliases buf, so it is
// valid only as long as the frame is; the decoded args are appended to
// args, reusing its capacity, and own their byte strings.
//
//doppel:hotpath
func decodeRequest(buf []byte, args []Arg) (id uint64, name []byte, _ []Arg, err error) {
	id, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, nil, args, errTruncatedID
	}
	buf = buf[w:]
	nl, w := binary.Uvarint(buf)
	if w <= 0 || nl > uint64(len(buf)-w) {
		return 0, nil, args, errTruncatedName
	}
	buf = buf[w:]
	name = buf[:nl:nl]
	buf = buf[nl:]
	argc, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, nil, args, errTruncatedArgc
	}
	if argc > maxArgs {
		return 0, nil, args, errTooManyArgs
	}
	buf = buf[w:]
	for i := uint64(0); i < argc; i++ {
		var a Arg
		a, buf, err = readArg(buf)
		if err != nil {
			return 0, nil, args, err
		}
		args = append(args, a)
	}
	return id, name, args, nil
}

//doppel:hotpath
func appendOKResponse(buf []byte, id uint64, result Arg) []byte {
	buf = binary.AppendUvarint(buf, id)
	buf = append(buf, statusOK)
	return appendArg(buf, result)
}

func appendErrResponse(buf []byte, id uint64, status byte, msg string) []byte {
	buf = binary.AppendUvarint(buf, id)
	buf = append(buf, status)
	buf = binary.AppendUvarint(buf, uint64(len(msg)))
	return append(buf, msg...)
}

// decodeResponse splits per-call failures (callErr: the procedure
// failed, the connection stays usable) from wire corruption (wireErr:
// the stream can no longer be trusted).
func decodeResponse(buf []byte) (id uint64, result Arg, callErr, wireErr error) {
	id, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, Nil, nil, errors.New("server: truncated response ID")
	}
	buf = buf[w:]
	if len(buf) < 1 {
		return 0, Nil, nil, errors.New("server: truncated response status")
	}
	status := buf[0]
	buf = buf[1:]
	if status == statusOK {
		result, _, wireErr = readArg(buf)
		return id, result, nil, wireErr
	}
	ml, w := binary.Uvarint(buf)
	if w <= 0 || ml > uint64(len(buf)-w) {
		return 0, Nil, nil, errors.New("server: truncated error message")
	}
	msg := string(buf[w : w+int(ml)])
	switch status {
	case statusUnknownProc:
		return id, Nil, &UnknownProcedureError{Name: msg}, nil
	case statusErr:
		return id, Nil, errors.New(msg), nil
	default:
		if sentinel := sentinelFor(status); sentinel != nil {
			return id, Nil, &remoteError{sentinel: sentinel, msg: msg}, nil
		}
		return 0, Nil, nil, fmt.Errorf("server: unknown response status %d", status)
	}
}
