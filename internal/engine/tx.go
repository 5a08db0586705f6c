package engine

import "doppel/internal/store"

// Ops is the half of a transaction each engine supplies: one read and
// one write of a single record, plus the executing worker. Tx builds
// every operation a body can call from these three methods, so an
// engine's concurrency control lives entirely in Read and Write.
type Ops interface {
	// Read returns key's value as the transaction sees it (nil if
	// absent). forUpdate is the GetForUpdate hint: the 2PL engine takes
	// the write lock at once (SELECT ... FOR UPDATE) so read-then-write
	// transactions cannot deadlock on lock upgrades; other engines
	// ignore it.
	Read(key string, forUpdate bool) (*store.Value, error)
	// Write performs or buffers op on key. op is one of the three puts
	// (OpPut, OpPutInt, OpPutBytes) or a splittable operation. An
	// engine stamps the core ID of an OpOPut or OpTopKInsert
	// (store.Op.SetCoreID) with its own worker ID. op is passed by
	// value: a pointer passed through this interface call would escape
	// and allocate.
	Write(key string, op store.Op) error
	// WorkerID identifies the worker executing the transaction.
	WorkerID() int
}

// Tx is what a transaction body programs against. Every operation
// accesses exactly one record, per the paper's data model (§3);
// transactions compose multi-record logic from them. Blind update
// operations (Add, Max, ...) return only errors: splittable operations
// must return nothing (§4 guideline 2). Each operation is one call to
// the engine's Ops.
type Tx struct{ ops Ops }

// NewTx returns the Tx whose operations run on ops.
func NewTx(ops Ops) Tx { return Tx{ops} }

// OpsOf returns the Ops tx runs on, for engine-specific extensions such
// as FenceTx.
func OpsOf(tx Tx) Ops { return tx.ops }

// Get returns the record's current value (nil if absent).
//
//doppel:hotpath
func (t Tx) Get(key string) (*store.Value, error) { return t.ops.Read(key, false) }

// GetForUpdate is Get plus a write-intent hint; see Ops.Read.
func (t Tx) GetForUpdate(key string) (*store.Value, error) { return t.ops.Read(key, true) }

// GetInt returns an integer record's value, 0 if absent.
func (t Tx) GetInt(key string) (int64, error) { return t.getInt(key, false) }

// GetIntForUpdate is GetInt with the GetForUpdate hint.
func (t Tx) GetIntForUpdate(key string) (int64, error) { return t.getInt(key, true) }

// getInt reads an integer record, with the GetForUpdate hint if
// forUpdate.
//
//doppel:hotpath
func (t Tx) getInt(key string, forUpdate bool) (int64, error) {
	v, err := t.ops.Read(key, forUpdate)
	if err != nil {
		return 0, err
	}
	return v.AsInt()
}

// GetBytes returns a byte-string record's value, nil if absent.
func (t Tx) GetBytes(key string) ([]byte, error) {
	v, err := t.ops.Read(key, false)
	if err != nil {
		return nil, err
	}
	return v.AsBytes()
}

// GetTuple returns an ordered-tuple record's value; the bool is false if
// the record is absent.
func (t Tx) GetTuple(key string) (store.Tuple, bool, error) {
	v, err := t.ops.Read(key, false)
	if err != nil {
		return store.Tuple{}, false, err
	}
	return v.AsTuple()
}

// GetTopK returns the entries of a top-K record, best first.
func (t Tx) GetTopK(key string) ([]store.TopKEntry, error) {
	v, err := t.ops.Read(key, false)
	if err != nil {
		return nil, err
	}
	tk, err := v.AsTopK()
	if err != nil {
		return nil, err
	}
	return tk.Entries(), nil
}

// Put overwrites the record's value. Put does not commute and is never
// splittable.
func (t Tx) Put(key string, v *store.Value) error {
	return t.ops.Write(key, store.Op{Kind: store.OpPut, Val: v})
}

// PutInt overwrites the record with the integer n.
//
//doppel:hotpath
func (t Tx) PutInt(key string, n int64) error {
	return t.ops.Write(key, store.Op{Kind: store.OpPutInt, Int: n})
}

// PutBytes overwrites the record with the byte string b.
//
//doppel:hotpath
func (t Tx) PutBytes(key string, b []byte) error {
	return t.ops.Write(key, store.Op{Kind: store.OpPutBytes, Bytes: b})
}

// Add adds n to an integer record (splittable).
//
//doppel:hotpath
func (t Tx) Add(key string, n int64) error {
	return t.ops.Write(key, store.Op{Kind: store.OpAdd, Int: n})
}

// Max raises an integer record to at least n (splittable).
func (t Tx) Max(key string, n int64) error {
	return t.ops.Write(key, store.Op{Kind: store.OpMax, Int: n})
}

// Min lowers an integer record to at most n (splittable).
func (t Tx) Min(key string, n int64) error {
	return t.ops.Write(key, store.Op{Kind: store.OpMin, Int: n})
}

// Mult multiplies an integer record by n (splittable).
func (t Tx) Mult(key string, n int64) error {
	return t.ops.Write(key, store.Op{Kind: store.OpMult, Int: n})
}

// OPut performs an ordered put: the tuple with the highest (order, core
// ID) wins (splittable). The engine supplies the core ID.
func (t Tx) OPut(key string, order store.Order, data []byte) error {
	return t.ops.Write(key, store.Op{Kind: store.OpOPut, Tuple: store.Tuple{Order: order, Data: data}})
}

// TopKInsert inserts (order, core ID, data) into a top-K set record,
// creating it with bound k if absent (splittable). The engine supplies
// the core ID.
func (t Tx) TopKInsert(key string, order int64, data []byte, k int) error {
	return t.ops.Write(key, store.Op{Kind: store.OpTopKInsert, K: k, Entry: store.TopKEntry{Order: order, Data: data}})
}

// WorkerID identifies the worker executing this transaction.
func (t Tx) WorkerID() int { return t.ops.WorkerID() }
