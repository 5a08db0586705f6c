package repl

import (
	"doppel/internal/store"
)

// readTx implements engine.Ops over a replica's store. Reads go straight
// to the record's current value — the caller (View) holds the apply
// lock, so "current" is a frozen log prefix — and every write returns
// ErrReadOnly. It holds one pointer, so it fits an interface without
// allocating.
type readTx struct {
	st *store.Store
}

// Read implements engine.Ops: the key's value, nil if absent. The
// write-intent hint is meaningless without writes.
func (t readTx) Read(key string, _ bool) (*store.Value, error) {
	r := t.st.Get(key)
	if r == nil {
		return nil, nil
	}
	return r.Value(), nil
}

// Write implements engine.Ops; it always fails with ErrReadOnly.
func (readTx) Write(string, store.Op) error { return ErrReadOnly }

// WorkerID implements engine.Ops. Views run on the caller's goroutine,
// not an engine worker; 0 keeps any worker-sharded caller logic inert.
func (readTx) WorkerID() int { return 0 }
