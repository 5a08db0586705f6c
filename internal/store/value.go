package store

import (
	"bytes"
	"fmt"
)

// Kind identifies the runtime type of a record's value. The paper's
// records "have typed values, and each type supports one or more
// operations" (§3).
type Kind uint8

// Value kinds.
const (
	KindNone  Kind = iota // absent / uninitialized
	KindInt64             // integer records (Add, Max, Min, Mult, Get, Put)
	KindBytes             // opaque byte strings (Get, Put)
	KindTuple             // ordered tuples (OPut, Get)
	KindTopK              // top-K sets (TopKInsert, GetTopK)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindInt64:
		return "int64"
	case KindBytes:
		return "bytes"
	case KindTuple:
		return "tuple"
	case KindTopK:
		return "topk"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Order is the ordering component of an ordered tuple: one or two numbers
// compared lexicographically. The paper's RUBiS port uses
// [amount, timestamp] (Figure 7).
type Order struct {
	A, B int64
}

// Less reports whether o orders strictly before p.
func (o Order) Less(p Order) bool {
	if o.A != p.A {
		return o.A < p.A
	}
	return o.B < p.B
}

// Equal reports whether the two orders are identical.
func (o Order) Equal(p Order) bool { return o == p }

// Tuple is an ordered tuple (o, j, x): order, writing core ID, and an
// arbitrary byte string. The order and core ID components are what make
// OPut commute (§4).
type Tuple struct {
	Order  Order
	CoreID int32
	Data   []byte
}

// wins reports whether tuple t should replace tuple cur under OPut
// semantics: higher order wins; ties broken by higher core ID; remaining
// ties broken by lexicographically larger data so resolution stays
// deterministic and commutative.
func (t Tuple) wins(cur Tuple) bool {
	if cur.Order.Less(t.Order) {
		return true
	}
	if t.Order.Less(cur.Order) {
		return false
	}
	if t.CoreID != cur.CoreID {
		return t.CoreID > cur.CoreID
	}
	return bytes.Compare(t.Data, cur.Data) > 0
}

// Value is an immutable typed value. A nil *Value means "absent", which
// every splittable operation treats as its identity (the paper: "Absent
// records are treated as having o = −∞").
//
// Tuple sits behind a pointer so a Value stays within one 64-byte size
// class; most values are integers or byte strings. TupleValue allocates
// the value and its tuple as one object.
type Value struct {
	Kind  Kind
	Int   int64
	Bytes []byte
	Tuple *Tuple
	TopK  *TopK
}

// tuple returns the tuple content; a nil Tuple reads as the zero tuple.
func (v *Value) tuple() Tuple {
	if v.Tuple == nil {
		return Tuple{}
	}
	return *v.Tuple
}

// tupleValue is a tuple value and its tuple in one allocation.
type tupleValue struct {
	v Value
	t Tuple
}

// IntValue returns an int64 value.
func IntValue(n int64) *Value { return &Value{Kind: KindInt64, Int: n} }

// BytesValue returns a byte-string value. The caller must not mutate b
// after the call.
func BytesValue(b []byte) *Value { return &Value{Kind: KindBytes, Bytes: b} }

// TupleValue returns an ordered-tuple value.
func TupleValue(t Tuple) *Value {
	tv := &tupleValue{v: Value{Kind: KindTuple}, t: t}
	tv.v.Tuple = &tv.t
	return &tv.v
}

// TopKValue returns a top-K set value.
func TopKValue(t *TopK) *Value { return &Value{Kind: KindTopK, TopK: t} }

// AsInt returns the integer content, treating absent as 0.
func (v *Value) AsInt() (int64, error) {
	if v == nil {
		return 0, nil
	}
	if v.Kind != KindInt64 {
		return 0, fmt.Errorf("store: value is %v, not int64", v.Kind)
	}
	return v.Int, nil
}

// AsBytes returns the byte-string content, treating absent as nil.
func (v *Value) AsBytes() ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	if v.Kind != KindBytes {
		return nil, fmt.Errorf("store: value is %v, not bytes", v.Kind)
	}
	return v.Bytes, nil
}

// AsTuple returns the tuple content; ok is false when absent.
func (v *Value) AsTuple() (Tuple, bool, error) {
	if v == nil {
		return Tuple{}, false, nil
	}
	if v.Kind != KindTuple {
		return Tuple{}, false, fmt.Errorf("store: value is %v, not tuple", v.Kind)
	}
	return v.tuple(), true, nil
}

// AsTopK returns the top-K set content, treating absent as the empty set.
func (v *Value) AsTopK() (*TopK, error) {
	if v == nil {
		return nil, nil
	}
	if v.Kind != KindTopK {
		return nil, fmt.Errorf("store: value is %v, not topk", v.Kind)
	}
	return v.TopK, nil
}

// Equal reports deep equality of two values (nil == nil).
func (v *Value) Equal(w *Value) bool {
	if v == nil || w == nil {
		return v == nil && w == nil
	}
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KindInt64:
		return v.Int == w.Int
	case KindBytes:
		return bytes.Equal(v.Bytes, w.Bytes)
	case KindTuple:
		a, b := v.tuple(), w.tuple()
		return a.Order == b.Order && a.CoreID == b.CoreID && bytes.Equal(a.Data, b.Data)
	case KindTopK:
		return v.TopK.Equal(w.TopK)
	default:
		return true
	}
}

// String implements fmt.Stringer.
func (v *Value) String() string {
	if v == nil {
		return "<absent>"
	}
	switch v.Kind {
	case KindInt64:
		return fmt.Sprintf("int64(%d)", v.Int)
	case KindBytes:
		return fmt.Sprintf("bytes(%q)", v.Bytes)
	case KindTuple:
		t := v.tuple()
		return fmt.Sprintf("tuple(%v,%d,%q)", t.Order, t.CoreID, t.Data)
	case KindTopK:
		return fmt.Sprintf("topk(%v)", v.TopK)
	default:
		return "none"
	}
}
