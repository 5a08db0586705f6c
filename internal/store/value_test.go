package store

import (
	"strings"
	"testing"
	"unsafe"
)

func TestKindString(t *testing.T) {
	kinds := []Kind{KindNone, KindInt64, KindBytes, KindTuple, KindTopK, Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty string for kind %d", k)
		}
	}
}

func TestOrderLess(t *testing.T) {
	cases := []struct {
		a, b Order
		want bool
	}{
		{Order{1, 0}, Order{2, 0}, true},
		{Order{2, 0}, Order{1, 0}, false},
		{Order{1, 1}, Order{1, 2}, true},
		{Order{1, 2}, Order{1, 1}, false},
		{Order{1, 1}, Order{1, 1}, false},
		{Order{-5, 100}, Order{0, -100}, true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v < %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if !(Order{3, 4}).Equal(Order{3, 4}) {
		t.Error("Equal failed")
	}
}

func TestTupleWins(t *testing.T) {
	base := Tuple{Order: Order{10, 0}, CoreID: 3, Data: []byte("x")}
	cases := []struct {
		t    Tuple
		want bool
	}{
		{Tuple{Order: Order{11, 0}, CoreID: 0}, true},                     // higher order wins
		{Tuple{Order: Order{9, 0}, CoreID: 9}, false},                     // lower order loses
		{Tuple{Order: Order{10, 0}, CoreID: 4}, true},                     // tie: higher core wins
		{Tuple{Order: Order{10, 0}, CoreID: 2}, false},                    // tie: lower core loses
		{Tuple{Order: Order{10, 0}, CoreID: 3, Data: []byte("y")}, true},  // full tie: larger data
		{Tuple{Order: Order{10, 0}, CoreID: 3, Data: []byte("w")}, false}, // full tie: smaller data
		{base, false}, // identical: no replacement
	}
	for i, c := range cases {
		if got := c.t.wins(base); got != c.want {
			t.Errorf("case %d: wins=%v want %v", i, got, c.want)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	iv := IntValue(42)
	if n, err := iv.AsInt(); err != nil || n != 42 {
		t.Fatalf("AsInt: %d, %v", n, err)
	}
	if _, err := iv.AsBytes(); err == nil {
		t.Fatal("expected type error")
	}
	if _, _, err := iv.AsTuple(); err == nil {
		t.Fatal("expected type error")
	}
	if _, err := iv.AsTopK(); err == nil {
		t.Fatal("expected type error")
	}

	bv := BytesValue([]byte("hi"))
	if b, err := bv.AsBytes(); err != nil || string(b) != "hi" {
		t.Fatalf("AsBytes: %q, %v", b, err)
	}
	if _, err := bv.AsInt(); err == nil {
		t.Fatal("expected type error")
	}

	tv := TupleValue(Tuple{Order: Order{1, 2}, CoreID: 7, Data: []byte("d")})
	tp, ok, err := tv.AsTuple()
	if err != nil || !ok || tp.CoreID != 7 {
		t.Fatalf("AsTuple: %+v %v %v", tp, ok, err)
	}

	kv := TopKValue(NewTopK(3))
	if tk, err := kv.AsTopK(); err != nil || tk.K() != 3 {
		t.Fatalf("AsTopK: %v %v", tk, err)
	}
}

func TestNilValueAccessors(t *testing.T) {
	var v *Value
	if n, err := v.AsInt(); err != nil || n != 0 {
		t.Fatal("nil AsInt should be 0")
	}
	if b, err := v.AsBytes(); err != nil || b != nil {
		t.Fatal("nil AsBytes should be nil")
	}
	if _, ok, err := v.AsTuple(); err != nil || ok {
		t.Fatal("nil AsTuple should be absent")
	}
	if tk, err := v.AsTopK(); err != nil || tk != nil {
		t.Fatal("nil AsTopK should be nil")
	}
}

func TestValueEqual(t *testing.T) {
	var nilV *Value
	if !nilV.Equal(nil) {
		t.Fatal("nil == nil")
	}
	if IntValue(1).Equal(nil) || nilV.Equal(IntValue(1)) {
		t.Fatal("nil != non-nil")
	}
	if !IntValue(5).Equal(IntValue(5)) || IntValue(5).Equal(IntValue(6)) {
		t.Fatal("int equality")
	}
	if IntValue(5).Equal(BytesValue([]byte("5"))) {
		t.Fatal("cross-kind equality")
	}
	if !BytesValue([]byte("a")).Equal(BytesValue([]byte("a"))) {
		t.Fatal("bytes equality")
	}
	tup := Tuple{Order: Order{1, 2}, CoreID: 3, Data: []byte("z")}
	if !TupleValue(tup).Equal(TupleValue(tup)) {
		t.Fatal("tuple equality")
	}
	tup2 := tup
	tup2.CoreID = 4
	if TupleValue(tup).Equal(TupleValue(tup2)) {
		t.Fatal("tuple inequality")
	}
	a := NewTopK(2).Insert(TopKEntry{Order: 1, Data: []byte("a")})
	b := NewTopK(2).Insert(TopKEntry{Order: 1, Data: []byte("a")})
	if !TopKValue(a).Equal(TopKValue(b)) {
		t.Fatal("topk equality")
	}
}

func TestValueString(t *testing.T) {
	var nilV *Value
	vals := []*Value{nilV, IntValue(1), BytesValue([]byte("b")),
		TupleValue(Tuple{}), TopKValue(NewTopK(1)), {Kind: KindNone}}
	for _, v := range vals {
		if v.String() == "" {
			t.Fatalf("empty String for %#v", v)
		}
	}
	if !strings.Contains(IntValue(7).String(), "7") {
		t.Fatal("int string should contain the value")
	}
}

// TestValueSize pins Value to one 64-byte allocation size class: the
// tuple lives behind a pointer, since most values are integers or byte
// strings.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 64 {
		t.Fatalf("sizeof(Value) = %d bytes, want <= 64", n)
	}
}

// TestTupleValueOwnsItsTuple: TupleValue copies the tuple into the
// value, so later changes to the caller's Tuple do not show through.
func TestTupleValueOwnsItsTuple(t *testing.T) {
	tp := Tuple{Order: Order{A: 1, B: 2}, CoreID: 3, Data: []byte("x")}
	v := TupleValue(tp)
	tp.Order.A = 99
	got, ok, err := v.AsTuple()
	if err != nil || !ok || got.Order.A != 1 || got.CoreID != 3 || string(got.Data) != "x" {
		t.Fatalf("AsTuple = %+v %v %v", got, ok, err)
	}
	if !v.Equal(TupleValue(Tuple{Order: Order{A: 1, B: 2}, CoreID: 3, Data: []byte("x")})) {
		t.Fatal("equal tuples compare unequal")
	}
	if s := v.String(); s != `tuple({1 2},3,"x")` {
		t.Fatalf("String = %s", s)
	}
}
