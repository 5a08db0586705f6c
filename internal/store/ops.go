package store

import "fmt"

// OpKind identifies a database operation. Each operation accesses exactly
// one record (§3); transactions compose multi-record logic from these.
type OpKind uint8

// Operation kinds. The splittable subset (§4) is Add, Max, Min, Mult,
// OPut and TopKInsert: each commutes with itself and returns nothing.
const (
	OpNone       OpKind = iota
	OpGet               // read a record's value
	OpPut               // overwrite a record's value (does not commute)
	OpAdd               // integer addition
	OpMax               // integer maximum
	OpMin               // integer minimum
	OpMult              // integer multiplication (paper §4: "for instance, multiply")
	OpOPut              // ordered put on (order, coreID, data) tuples
	OpTopKInsert        // insert into a bounded top-K set
	// OpPutInt and OpPutBytes are the forms of OpPut that PutInt and
	// PutBytes write: they carry the integer or byte string itself, and
	// Apply builds the value, so a write that is vetoed or aborted
	// before commit allocates nothing. OpPutBytes stays the last kind:
	// per-kind counter arrays are sized by it.
	OpPutInt
	OpPutBytes
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpNone:
		return "none"
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpAdd:
		return "add"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpMult:
		return "mult"
	case OpOPut:
		return "oput"
	case OpTopKInsert:
		return "topk-insert"
	case OpPutInt:
		return "put-int"
	case OpPutBytes:
		return "put-bytes"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Splittable reports whether the operation may execute against per-core
// slices during a split phase: it must commute with itself and return
// nothing (§4 guidelines 1 and 2).
func (k OpKind) Splittable() bool {
	switch k {
	case OpAdd, OpMax, OpMin, OpMult, OpOPut, OpTopKInsert:
		return true
	default:
		return false
	}
}

// Write reports whether the operation modifies the database.
func (k OpKind) Write() bool { return k != OpGet && k != OpNone }

// Op is one buffered operation on one record: the kind plus its operands.
// For OpAdd/OpMax/OpMin/OpMult, Int is the integer operand. For OpPut,
// Val is the new value; for OpPutInt it is Int, for OpPutBytes Bytes.
// For OpOPut, Tuple carries (order, coreID, data). For OpTopKInsert,
// Entry carries (order, coreID, data) and K bounds the set when the
// record is created by this insert.
type Op struct {
	Kind  OpKind
	Int   int64
	Val   *Value
	Bytes []byte
	Tuple Tuple
	Entry TopKEntry
	K     int
}

// Apply returns the value resulting from applying op to v. It is a pure
// function: v is never mutated, absent (nil) inputs act as the
// operation's identity, and the result is a fresh immutable value. Both
// the joined-phase commit protocol and the per-core slice machinery use
// this single definition, so split execution cannot drift from joined
// execution.
func Apply(v *Value, op Op) (*Value, error) {
	switch op.Kind {
	case OpPut:
		return op.Val, nil
	case OpPutInt:
		return IntValue(op.Int), nil
	case OpPutBytes:
		return BytesValue(op.Bytes), nil
	case OpAdd, OpMult, OpMax, OpMin:
		n, err := ApplyInt(v, op)
		if err != nil {
			return nil, err
		}
		if v != nil && v.Int == n {
			return v, nil // unchanged; values are immutable, so share it
		}
		return IntValue(n), nil
	case OpOPut:
		cur, present, err := v.AsTuple()
		if err != nil {
			return nil, err
		}
		if !present || op.Tuple.wins(cur) {
			return TupleValue(op.Tuple), nil
		}
		return v, nil
	case OpTopKInsert:
		cur, err := v.AsTopK()
		if err != nil {
			return nil, err
		}
		if cur == nil {
			cur = NewTopK(op.K)
		}
		return TopKValue(cur.Insert(op.Entry)), nil
	default:
		return nil, fmt.Errorf("store: cannot apply %v", op.Kind)
	}
}

// Check returns the error Apply(v, op) would return, without building
// the result, so it allocates nothing on success.
func Check(v *Value, op Op) error {
	var err error
	switch op.Kind {
	case OpPut, OpPutInt, OpPutBytes:
	case OpAdd, OpMult, OpMax, OpMin:
		_, err = ApplyInt(v, op)
	case OpOPut:
		_, _, err = v.AsTuple()
	case OpTopKInsert:
		_, err = v.AsTopK()
	default:
		err = fmt.Errorf("store: cannot apply %v", op.Kind)
	}
	return err
}

// SetCoreID stamps the executing core's ID into an OPut's tuple or a
// TopKInsert's entry, where it breaks ties between equal orders. Other
// operations carry no core ID.
func (op *Op) SetCoreID(id int) {
	switch op.Kind {
	case OpOPut:
		op.Tuple.CoreID = int32(id)
	case OpTopKInsert:
		op.Entry.CoreID = int32(id)
	}
}

// IntOp reports whether k is one of the integer operations (Add, Max,
// Min, Mult), whose results ApplyInt computes without allocating.
func (k OpKind) IntOp() bool {
	return k == OpAdd || k == OpMax || k == OpMin || k == OpMult
}

// ApplyInt is Apply for the integer operations, returning the resulting
// integer instead of a new value: absent (nil) acts as the operation's
// identity, and a non-integer v is an error. It allocates nothing.
func ApplyInt(v *Value, op Op) (int64, error) {
	if !op.Kind.IntOp() {
		return 0, fmt.Errorf("store: %v is not an integer operation", op.Kind)
	}
	if v == nil {
		return op.Int, nil
	}
	cur, err := v.AsInt()
	if err != nil {
		return 0, err
	}
	switch op.Kind {
	case OpAdd:
		return cur + op.Int, nil
	case OpMult:
		return cur * op.Int, nil
	case OpMax:
		return max(cur, op.Int), nil
	default:
		return min(cur, op.Int), nil
	}
}

// MergeValues combines a per-core slice value into a global value for the
// given selected operation; it is the merge-apply step of the paper's
// reconciliation protocol (Figure 4, Figure 5). Either argument may be
// nil (absent / identity).
func MergeValues(op OpKind, global, slice *Value) (*Value, error) {
	if slice == nil {
		return global, nil
	}
	if global == nil {
		return slice, nil
	}
	switch op {
	case OpAdd:
		g, err := global.AsInt()
		if err != nil {
			return nil, err
		}
		s, err := slice.AsInt()
		if err != nil {
			return nil, err
		}
		return IntValue(g + s), nil
	case OpMult:
		g, err := global.AsInt()
		if err != nil {
			return nil, err
		}
		s, err := slice.AsInt()
		if err != nil {
			return nil, err
		}
		return IntValue(g * s), nil
	case OpMax:
		g, err := global.AsInt()
		if err != nil {
			return nil, err
		}
		s, err := slice.AsInt()
		if err != nil {
			return nil, err
		}
		if s > g {
			return slice, nil
		}
		return global, nil
	case OpMin:
		g, err := global.AsInt()
		if err != nil {
			return nil, err
		}
		s, err := slice.AsInt()
		if err != nil {
			return nil, err
		}
		if s < g {
			return slice, nil
		}
		return global, nil
	case OpOPut:
		st, sok, err := slice.AsTuple()
		if err != nil {
			return nil, err
		}
		if !sok {
			return global, nil
		}
		gt, gok, err := global.AsTuple()
		if err != nil {
			return nil, err
		}
		if !gok || st.wins(gt) {
			return slice, nil
		}
		return global, nil
	case OpTopKInsert:
		g, err := global.AsTopK()
		if err != nil {
			return nil, err
		}
		s, err := slice.AsTopK()
		if err != nil {
			return nil, err
		}
		return TopKValue(g.Merge(s)), nil
	default:
		return nil, fmt.Errorf("store: %v is not splittable, cannot merge", op)
	}
}
