package core

// Commit-fence behavior of the core commit path: a record fenced by an
// in-flight cross-shard commit aborts every transaction that touches it
// with AbortedFenced — writers at lock time, readers at validation —
// except the fence's owner, which declares its token via engine.FenceTx.

import (
	"testing"

	"doppel/internal/engine"
	"doppel/internal/store"
)

func openFenceDB(t *testing.T) (*DB, *store.Store) {
	t.Helper()
	st := store.New()
	st.Preload("fenced", store.IntValue(10))
	st.Preload("free", store.IntValue(0))
	cfg := DefaultConfig(1)
	cfg.PhaseLength = 0
	db := Open(st, cfg)
	t.Cleanup(db.Close)
	return db, st
}

func TestFencedRecordAbortsWriters(t *testing.T) {
	db, st := openFenceDB(t)
	rec := st.Get("fenced")
	if !rec.Fence(99) {
		t.Fatal("Fence failed")
	}
	defer rec.Unfence(99)

	out, err := db.Attempt(0, func(tx engine.Tx) error {
		return tx.PutInt("fenced", 1)
	}, 0)
	if err != nil || out != engine.AbortedFenced {
		t.Fatalf("write to fenced record: outcome %v err %v, want AbortedFenced", out, err)
	}
	// An unfenced key on the same shard is unaffected.
	out, err = db.Attempt(0, func(tx engine.Tx) error {
		return tx.PutInt("free", 1)
	}, 0)
	if err != nil || out != engine.Committed {
		t.Fatalf("write to free record: outcome %v err %v, want Committed", out, err)
	}
	// The abort is counted as a fence abort, not a conflict.
	if s := db.WorkerStats(0); s.FenceAborts.Load() == 0 || s.Aborted.Load() != 0 {
		t.Fatalf("stats fence_aborts=%d aborted=%d, want >0 and 0", s.FenceAborts.Load(), s.Aborted.Load())
	}
}

func TestFencedRecordAbortsReaders(t *testing.T) {
	db, st := openFenceDB(t)
	rec := st.Get("fenced")
	if !rec.Fence(99) {
		t.Fatal("Fence failed")
	}
	defer rec.Unfence(99)

	out, err := db.Attempt(0, func(tx engine.Tx) error {
		_, gerr := tx.GetInt("fenced")
		return gerr
	}, 0)
	if err != nil || out != engine.AbortedFenced {
		t.Fatalf("read of fenced record: outcome %v err %v, want AbortedFenced", out, err)
	}
}

func TestFenceOwnerPasses(t *testing.T) {
	db, st := openFenceDB(t)
	rec := st.Get("fenced")
	if !rec.Fence(99) {
		t.Fatal("Fence failed")
	}
	defer rec.Unfence(99)

	// The owner — the cross-shard apply transaction — reads and writes
	// its own fenced record through the normal commit protocol.
	out, err := db.Attempt(0, func(tx engine.Tx) error {
		tx.(engine.FenceTx).SetFenceToken(99)
		n, gerr := tx.GetInt("fenced")
		if gerr != nil {
			return gerr
		}
		return tx.PutInt("fenced", n+5)
	}, 0)
	if err != nil || out != engine.Committed {
		t.Fatalf("owner commit: outcome %v err %v, want Committed", out, err)
	}
	var got int64
	rec.Unfence(99)
	out, err = db.Attempt(0, func(tx engine.Tx) error {
		n, gerr := tx.GetInt("fenced")
		got = n
		return gerr
	}, 0)
	if err != nil || out != engine.Committed || got != 15 {
		t.Fatalf("post-release read: outcome %v err %v got %d, want Committed 15", out, err, got)
	}
}

func TestFenceTokenClearsBetweenTransactions(t *testing.T) {
	db, st := openFenceDB(t)
	rec := st.Get("fenced")
	if !rec.Fence(99) {
		t.Fatal("Fence failed")
	}
	defer rec.Unfence(99)

	out, err := db.Attempt(0, func(tx engine.Tx) error {
		tx.(engine.FenceTx).SetFenceToken(99)
		return tx.PutInt("fenced", 1)
	}, 0)
	if err != nil || out != engine.Committed {
		t.Fatalf("owner commit: outcome %v err %v", out, err)
	}
	// The next transaction on the same worker must NOT inherit the
	// token: tx.reset clears it, or every later transaction on this
	// worker would sail through foreign fences.
	out, err = db.Attempt(0, func(tx engine.Tx) error {
		return tx.PutInt("fenced", 2)
	}, 0)
	if err != nil || out != engine.AbortedFenced {
		t.Fatalf("token leaked across transactions: outcome %v err %v, want AbortedFenced", out, err)
	}
}

// outcomes is a Completion that records every outcome it is given.
type outcomes []error

func (o *outcomes) Complete(err error) { *o = append(*o, err) }

// TestFenceParkedRunRetriedByPoll: a request submitted with a
// completion that aborts on a fence is held by the worker, not returned
// to the caller. Poll retries it, and it completes exactly once, after
// the fence is gone.
func TestFenceParkedRunRetriedByPoll(t *testing.T) {
	db, st := openFenceDB(t)
	rec := st.Get("fenced")
	if !rec.Fence(99) {
		t.Fatal("Fence failed")
	}
	var done outcomes
	add := func(tx engine.Tx) error { return tx.Add("fenced", 5) }
	if out := db.Run(0, add, 0, &done); out != engine.AbortedFenced {
		t.Fatalf("Run outcome %v, want AbortedFenced", out)
	}
	if len(done) != 0 || db.StashLen(0) != 1 {
		t.Fatalf("after the fence abort: %d completions, %d held; want 0 and 1", len(done), db.StashLen(0))
	}
	db.Poll(0) // the fence still stands: parked again
	if len(done) != 0 || db.StashLen(0) != 1 {
		t.Fatalf("Poll under the fence: %d completions, %d held; want 0 and 1", len(done), db.StashLen(0))
	}
	rec.Unfence(99)
	db.Poll(0)
	db.Poll(0)
	if len(done) != 1 || done[0] != nil || db.StashLen(0) != 0 {
		t.Fatalf("after the unfence: completions %v, %d held; want one nil and 0", done, db.StashLen(0))
	}
	if n, _ := rec.Value().AsInt(); n != 15 {
		t.Fatalf("fenced = %d, want 15", n)
	}
}
