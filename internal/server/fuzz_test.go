package server

import (
	"bytes"
	"testing"
)

func argsEqual(a, b []Arg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].n != b[i].n || !bytes.Equal(a[i].b, b[i].b) {
			return false
		}
	}
	return true
}

// FuzzDecodeRequest feeds arbitrary payloads to the server's request
// decoder the way the read loop does: from a buffer that is reused for
// the next frame, into a recycled args slice. Whatever it accepts must
// re-encode to an equivalent request, and no decoded byte string may
// alias the frame buffer.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(appendRequest(nil, 42, "proc", []Arg{Str("a"), Str(""), Int(-7), Bytes([]byte{1, 2}), Nil}))
	f.Add(appendRequest(nil, 0, sessionProc, []Arg{Str("token")}))
	f.Add(appendRequest(nil, 1<<63, "", nil))
	f.Add([]byte{0})
	scratch := make([]Arg, 0, 8)
	f.Fuzz(func(t *testing.T, payload []byte) {
		frame := bytes.Clone(payload)
		id, name, args, err := decodeRequest(frame, scratch[:0])
		if err != nil {
			return
		}
		nameCopy := string(name)
		want := make([]Arg, len(args))
		for i, a := range args {
			want[i] = Arg{kind: a.kind, n: a.n, b: bytes.Clone(a.b)}
		}
		for i := range frame {
			frame[i] = ^frame[i] // the read loop overwrites the frame next
		}
		if !argsEqual(args, want) {
			t.Fatalf("decoded args alias the frame buffer")
		}
		id2, name2, args2, err := decodeRequest(appendRequest(nil, id, nameCopy, args), nil)
		if err != nil || id2 != id || string(name2) != nameCopy || !argsEqual(args2, args) {
			t.Fatalf("re-encoded request decodes to %d %q %v %v; want %d %q %v", id2, name2, args2, err, id, nameCopy, args)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the client's response
// decoder: accepted OK responses re-encode equivalently, and a reply's
// byte string never aliases the reused frame buffer.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(appendOKResponse(nil, 9, Int(3)))
	f.Add(appendOKResponse(nil, 9, Str("reply")))
	f.Add(appendOKResponse(nil, 1, Nil))
	f.Add(appendErrResponse(nil, 10, statusErr, "bad"))
	f.Add(appendErrResponse(nil, 11, statusUnknownProc, "p"))
	f.Add(appendErrResponse(nil, 12, statusErrOverloaded, "busy"))
	f.Add([]byte{1, 99})
	f.Fuzz(func(t *testing.T, payload []byte) {
		frame := bytes.Clone(payload)
		id, result, callErr, wireErr := decodeResponse(frame)
		if wireErr != nil || callErr != nil {
			return
		}
		want := Arg{kind: result.kind, n: result.n, b: bytes.Clone(result.b)}
		for i := range frame {
			frame[i] = ^frame[i]
		}
		if !argsEqual([]Arg{result}, []Arg{want}) {
			t.Fatalf("decoded result aliases the frame buffer")
		}
		id2, result2, callErr, wireErr := decodeResponse(appendOKResponse(nil, id, result))
		if wireErr != nil || callErr != nil || id2 != id || !argsEqual([]Arg{result2}, []Arg{result}) {
			t.Fatalf("re-encoded response decodes to %d %v %v %v; want %d %v", id2, result2, callErr, wireErr, id, result)
		}
	})
}
