package store

import (
	"fmt"
	"testing"

	"doppel/internal/rng"
)

func TestOpKindStringAndClassification(t *testing.T) {
	split := map[OpKind]bool{
		OpAdd: true, OpMax: true, OpMin: true, OpMult: true,
		OpOPut: true, OpTopKInsert: true,
		OpGet: false, OpPut: false, OpPutInt: false, OpPutBytes: false, OpNone: false,
	}
	for k, want := range split {
		if k.Splittable() != want {
			t.Errorf("%v splittable = %v, want %v", k, k.Splittable(), want)
		}
		if k.String() == "" {
			t.Errorf("empty String for %d", k)
		}
	}
	if OpKind(200).String() == "" {
		t.Error("unknown op kind String empty")
	}
	if OpGet.Write() || OpNone.Write() {
		t.Error("reads classified as writes")
	}
	if !OpPut.Write() || !OpPutInt.Write() || !OpPutBytes.Write() || !OpAdd.Write() {
		t.Error("writes not classified")
	}
}

func TestApplyPut(t *testing.T) {
	v, err := Apply(IntValue(1), Op{Kind: OpPut, Val: BytesValue([]byte("x"))})
	if err != nil || v.Kind != KindBytes {
		t.Fatalf("put: %v %v", v, err)
	}
}

func TestApplyPutIntAndBytes(t *testing.T) {
	v, err := Apply(BytesValue([]byte("x")), Op{Kind: OpPutInt, Int: 7})
	if err != nil || v.Kind != KindInt64 || v.Int != 7 {
		t.Fatalf("put-int: %v %v", v, err)
	}
	v, err = Apply(IntValue(1), Op{Kind: OpPutBytes, Bytes: []byte("y")})
	if err != nil || v.Kind != KindBytes || string(v.Bytes) != "y" {
		t.Fatalf("put-bytes: %v %v", v, err)
	}
}

func TestApplyIntOps(t *testing.T) {
	cases := []struct {
		op   OpKind
		base *Value
		n    int64
		want int64
	}{
		{OpAdd, nil, 7, 7},
		{OpAdd, IntValue(10), 7, 17},
		{OpAdd, IntValue(10), -3, 7},
		{OpMult, nil, 7, 7},
		{OpMult, IntValue(10), 7, 70},
		{OpMax, nil, 7, 7},
		{OpMax, IntValue(10), 7, 10},
		{OpMax, IntValue(3), 7, 7},
		{OpMin, nil, 7, 7},
		{OpMin, IntValue(10), 7, 7},
		{OpMin, IntValue(3), 7, 3},
	}
	for _, c := range cases {
		v, err := Apply(c.base, Op{Kind: c.op, Int: c.n})
		if err != nil {
			t.Fatalf("%v: %v", c.op, err)
		}
		if got, _ := v.AsInt(); got != c.want {
			t.Errorf("%v(%v, %d) = %d, want %d", c.op, c.base, c.n, got, c.want)
		}
	}
}

func TestApplyTypeErrors(t *testing.T) {
	bad := BytesValue([]byte("s"))
	for _, k := range []OpKind{OpAdd, OpMax, OpMin, OpMult} {
		if _, err := Apply(bad, Op{Kind: k, Int: 1}); err == nil {
			t.Errorf("%v on bytes should fail", k)
		}
	}
	if _, err := Apply(IntValue(1), Op{Kind: OpOPut}); err == nil {
		t.Error("oput on int should fail")
	}
	if _, err := Apply(IntValue(1), Op{Kind: OpTopKInsert}); err == nil {
		t.Error("topk-insert on int should fail")
	}
	if _, err := Apply(IntValue(1), Op{Kind: OpGet}); err == nil {
		t.Error("apply of a read should fail")
	}
	if _, err := Apply(IntValue(1), Op{Kind: OpKind(77)}); err == nil {
		t.Error("apply of unknown op should fail")
	}
}

func TestApplyOPut(t *testing.T) {
	t1 := Tuple{Order: Order{5, 0}, CoreID: 1, Data: []byte("a")}
	t2 := Tuple{Order: Order{6, 0}, CoreID: 0, Data: []byte("b")}
	v, err := Apply(nil, Op{Kind: OpOPut, Tuple: t1})
	if err != nil {
		t.Fatal(err)
	}
	v, err = Apply(v, Op{Kind: OpOPut, Tuple: t2})
	if err != nil {
		t.Fatal(err)
	}
	tp, _, _ := v.AsTuple()
	if string(tp.Data) != "b" {
		t.Fatalf("higher order should win: %+v", tp)
	}
	// Lower order does not replace.
	v, _ = Apply(v, Op{Kind: OpOPut, Tuple: t1})
	tp, _, _ = v.AsTuple()
	if string(tp.Data) != "b" {
		t.Fatalf("lower order replaced: %+v", tp)
	}
}

func TestApplyTopKCreatesWithK(t *testing.T) {
	v, err := Apply(nil, Op{Kind: OpTopKInsert, Entry: TopKEntry{Order: 1}, K: 7})
	if err != nil {
		t.Fatal(err)
	}
	tk, _ := v.AsTopK()
	if tk.K() != 7 || tk.Len() != 1 {
		t.Fatalf("topk create: %v", tk)
	}
}

func TestMergeValuesIdentity(t *testing.T) {
	g := IntValue(5)
	if got, err := MergeValues(OpAdd, g, nil); err != nil || got != g {
		t.Fatal("nil slice should be identity")
	}
	s := IntValue(3)
	if got, err := MergeValues(OpAdd, nil, s); err != nil || got != s {
		t.Fatal("nil global should return slice")
	}
}

func TestMergeValuesPerOp(t *testing.T) {
	check := func(op OpKind, g, s *Value, want int64) {
		t.Helper()
		v, err := MergeValues(op, g, s)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if got, _ := v.AsInt(); got != want {
			t.Fatalf("%v merge(%v,%v) = %d, want %d", op, g, s, got, want)
		}
	}
	check(OpAdd, IntValue(5), IntValue(3), 8)
	check(OpMult, IntValue(5), IntValue(3), 15)
	check(OpMax, IntValue(5), IntValue(3), 5)
	check(OpMax, IntValue(2), IntValue(3), 3)
	check(OpMin, IntValue(5), IntValue(3), 3)
	check(OpMin, IntValue(2), IntValue(3), 2)

	if _, err := MergeValues(OpPut, IntValue(1), IntValue(2)); err == nil {
		t.Fatal("merging a non-splittable op should fail")
	}
	if _, err := MergeValues(OpAdd, IntValue(1), BytesValue(nil)); err == nil {
		t.Fatal("type mismatch should fail")
	}
	if _, err := MergeValues(OpOPut, IntValue(1), TupleValue(Tuple{})); err == nil {
		t.Fatal("type mismatch should fail")
	}
}

func TestMergeValuesOPut(t *testing.T) {
	g := TupleValue(Tuple{Order: Order{5, 0}, CoreID: 1})
	s := TupleValue(Tuple{Order: Order{7, 0}, CoreID: 0})
	v, err := MergeValues(OpOPut, g, s)
	if err != nil {
		t.Fatal(err)
	}
	tp, _, _ := v.AsTuple()
	if tp.Order.A != 7 {
		t.Fatalf("slice should win: %+v", tp)
	}
	v, err = MergeValues(OpOPut, s, g)
	if err != nil {
		t.Fatal(err)
	}
	tp, _, _ = v.AsTuple()
	if tp.Order.A != 7 {
		t.Fatalf("global should win: %+v", tp)
	}
}

// randomOp generates a random splittable op for the given kind family.
func randomOp(r *rng.Rand, family OpKind, cores int) Op {
	switch family {
	case OpAdd, OpMax, OpMin:
		return Op{Kind: family, Int: int64(r.Intn(100)) - 50}
	case OpMult:
		// Small positive operands to avoid overflow in long products.
		return Op{Kind: OpMult, Int: int64(1 + r.Intn(3))}
	case OpOPut:
		return Op{Kind: OpOPut, Tuple: Tuple{
			Order:  Order{int64(r.Intn(20)), int64(r.Intn(5))},
			CoreID: int32(r.Intn(cores)),
			Data:   []byte(fmt.Sprintf("v%d", r.Intn(10))),
		}}
	case OpTopKInsert:
		return Op{Kind: OpTopKInsert, K: 4, Entry: TopKEntry{
			Order:  int64(r.Intn(20)),
			CoreID: int32(r.Intn(cores)),
			Data:   []byte(fmt.Sprintf("v%d", r.Intn(10))),
		}}
	}
	panic("unreachable")
}

// TestSplitMergeEquivalence is the central §5.6 correctness property:
// for every splittable operation, partitioning a stream of ops across
// per-core slices (each starting from the absent identity) and merging the
// slices into the global value in ANY order must equal applying the whole
// stream serially against the global store.
//
// For OPut and TopKInsert the op carries the core ID that executes it, so
// the partition assignment must follow the op's CoreID, exactly as Doppel
// executes them.
func TestSplitMergeEquivalence(t *testing.T) {
	families := []OpKind{OpAdd, OpMax, OpMin, OpMult, OpOPut, OpTopKInsert}
	r := rng.New(777)
	for _, family := range families {
		for trial := 0; trial < 200; trial++ {
			cores := 1 + r.Intn(5)
			n := r.Intn(30)
			ops := make([]Op, n)
			for i := range ops {
				ops[i] = randomOp(r, family, cores)
			}
			var initial *Value
			if r.Bool(0.5) && family != OpOPut && family != OpTopKInsert {
				initial = IntValue(int64(r.Intn(40)) - 20)
			}

			// Serial execution against the global store.
			serial := initial
			var err error
			for _, op := range ops {
				serial, err = Apply(serial, op)
				if err != nil {
					t.Fatal(err)
				}
			}

			// Split execution: per-core slices from identity, assigned by
			// the op's core (round-robin for integer ops, which carry no
			// core ID).
			slices := make([]*Value, cores)
			for i, op := range ops {
				c := i % cores
				if family == OpOPut {
					c = int(op.Tuple.CoreID)
				} else if family == OpTopKInsert {
					c = int(op.Entry.CoreID)
				}
				slices[c], err = Apply(slices[c], op)
				if err != nil {
					t.Fatal(err)
				}
			}
			perm := make([]int, cores)
			r.Perm(perm)
			merged := initial
			for _, c := range perm {
				merged, err = MergeValues(family, merged, slices[c])
				if err != nil {
					t.Fatal(err)
				}
			}
			if !merged.Equal(serial) {
				t.Fatalf("%v trial %d: split/merge %v != serial %v (init %v, ops %+v)",
					family, trial, merged, serial, initial, ops)
			}
		}
	}
}

// TestApplyIntMatchesApply: ApplyInt is Apply for the integer
// operations without the allocation, absent input included.
func TestApplyIntMatchesApply(t *testing.T) {
	for _, kind := range []OpKind{OpAdd, OpMax, OpMin, OpMult} {
		for _, cur := range []*Value{nil, IntValue(-3), IntValue(0), IntValue(7)} {
			for _, n := range []int64{-5, 0, 1, 9} {
				op := Op{Kind: kind, Int: n}
				want, err := Apply(cur, op)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ApplyInt(cur, op)
				if err != nil || got != want.Int {
					t.Fatalf("ApplyInt(%v, %v %d) = %d, %v; Apply gives %v", cur, kind, n, got, err, want)
				}
			}
		}
		if _, err := ApplyInt(BytesValue([]byte("x")), Op{Kind: kind, Int: 1}); err == nil {
			t.Fatalf("%v on a byte string: no error", kind)
		}
	}
	if _, err := ApplyInt(nil, Op{Kind: OpOPut}); err == nil {
		t.Fatal("ApplyInt accepted OPut")
	}
}

// TestCheckMatchesApply: Check fails exactly where Apply does, with the
// same error, for every write kind against every value kind, and it
// allocates nothing when the op fits.
func TestCheckMatchesApply(t *testing.T) {
	values := []*Value{
		nil, IntValue(3), BytesValue([]byte("x")),
		TupleValue(Tuple{Order: Order{A: 1}}), TopKValue(NewTopK(2)),
	}
	ops := []Op{
		{Kind: OpPut, Val: IntValue(1)}, {Kind: OpPutInt, Int: 1}, {Kind: OpPutBytes, Bytes: []byte("y")},
		{Kind: OpAdd, Int: 1}, {Kind: OpMax, Int: 1}, {Kind: OpMin, Int: 1}, {Kind: OpMult, Int: 2},
		{Kind: OpOPut, Tuple: Tuple{Order: Order{A: 2}}},
		{Kind: OpTopKInsert, K: 2, Entry: TopKEntry{Order: 5}},
		{Kind: OpGet},
	}
	for _, v := range values {
		for _, op := range ops {
			_, want := Apply(v, op)
			got := Check(v, op)
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Errorf("Check(%v, %v) = %v, Apply's error is %v", v, op.Kind, got, want)
			}
			if want == nil {
				if n := testing.AllocsPerRun(100, func() { _ = Check(v, op) }); n != 0 {
					t.Errorf("Check(%v, %v) allocates %.0f objects", v, op.Kind, n)
				}
			}
		}
	}
}

// TestSetCoreID: the core ID lands in an OPut's tuple or a
// TopKInsert's entry, and nowhere on other operations.
func TestSetCoreID(t *testing.T) {
	op := Op{Kind: OpOPut}
	op.SetCoreID(5)
	if op.Tuple.CoreID != 5 || op.Entry.CoreID != 0 {
		t.Errorf("OPut stamped %+v", op)
	}
	op = Op{Kind: OpTopKInsert}
	op.SetCoreID(5)
	if op.Entry.CoreID != 5 || op.Tuple.CoreID != 0 {
		t.Errorf("TopKInsert stamped %+v", op)
	}
	op = Op{Kind: OpAdd}
	op.SetCoreID(5)
	if op.Tuple.CoreID != 0 || op.Entry.CoreID != 0 {
		t.Errorf("Add stamped %+v", op)
	}
}
