package core

import (
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"

	"doppel/internal/engine"
	"doppel/internal/store"
	"doppel/internal/wal"
)

// TestReconcileMergeFailureKeepsTID: when a split record's slice cannot
// merge into its global value (type mismatch), reconciliation must keep
// BOTH the old value and the old TID — a fresh TID would invalidate
// readers for a write that never happened and desynchronize recovery
// (no redo record is logged) — and must count the loss.
func TestReconcileMergeFailureKeepsTID(t *testing.T) {
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard) // silence the (intentional) one-shot warning

	db := manualDB(1)
	defer db.Close()
	// The global value is bytes; an Add slice can never merge into it.
	mustCommit(t, db, 0, func(tx engine.Tx) error { return tx.PutBytes("bad", []byte("x")) })
	rec := db.Store().Get("bad")
	tidBefore, _ := rec.TIDWord()
	valBefore := rec.Value()

	db.SplitHint("bad", store.OpAdd)
	if !db.RequestSplitPhase() {
		t.Fatal("split refused")
	}
	db.Poll(0)
	if db.Phase() != PhaseSplit {
		t.Fatal("not split")
	}
	mustCommit(t, db, 0, func(tx engine.Tx) error { return tx.Add("bad", 5) })

	if !db.RequestJoinedPhase() {
		t.Fatal("joined refused")
	}
	db.Poll(0) // runs reconcile

	tidAfter, _ := rec.TIDWord()
	if tidAfter != tidBefore {
		t.Fatalf("merge failure minted a fresh TID: %d -> %d", tidBefore, tidAfter)
	}
	if rec.Value() != valBefore {
		t.Fatalf("merge failure replaced the value: %v", rec.Value())
	}
	if got := db.WorkerStats(0).MergeFailures.Load(); got != 1 {
		t.Fatalf("MergeFailures = %d, want 1", got)
	}
	// The record still works for compatible transactions afterwards.
	mustCommit(t, db, 0, func(tx engine.Tx) error {
		b, err := tx.GetBytes("bad")
		if err != nil {
			return err
		}
		if string(b) != "x" {
			t.Errorf("value after failed merge: %q", b)
		}
		return nil
	})
}

// TestWorkersCappedAtTIDLimit: commit TIDs carry an 8-bit worker ID, so
// Config.Workers beyond MaxWorkers must be capped — two workers sharing
// an ID could mint colliding TIDs and recovery could resurrect the
// wrong value.
func TestWorkersCappedAtTIDLimit(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.PhaseLength = 0
	db := Open(store.New(), cfg)
	defer db.Close()
	if db.Workers() != MaxWorkers {
		t.Fatalf("Workers() = %d, want capped at %d", db.Workers(), MaxWorkers)
	}
}

// TestWALFailStopRefusesAfterLoggerDeath: with Config.WALFailStop, the
// engine must refuse every transaction attempt — returning the logger's
// terminal error — once the redo logger is dead.
func TestWALFailStopRefusesAfterLoggerDeath(t *testing.T) {
	dir := t.TempDir()
	lg, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	cfg := DefaultConfig(1)
	cfg.PhaseLength = 0
	cfg.Redo = lg
	cfg.WALFailStop = true
	db := Open(store.New(), cfg)
	defer db.Close()
	mustCommit(t, db, 0, func(tx engine.Tx) error { return tx.PutInt("k", 1) })

	// Kill the logger: the next segment's path is occupied by a
	// directory, so rotation fails terminally.
	if err := os.Mkdir(filepath.Join(dir, "wal-00000002.log"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := lg.Rotate(); err == nil {
		t.Fatal("rotate succeeded over a dead segment path")
	}
	if !lg.Failed() {
		t.Fatal("logger not marked failed")
	}
	out, err := db.Attempt(0, func(tx engine.Tx) error { return tx.PutInt("k", 2) }, 0)
	if out != engine.UserAbort || err == nil {
		t.Fatalf("attempt after logger death: outcome %v err %v, want UserAbort with error", out, err)
	}
}

// TestStashedFirstReplayIsNotARetry: a stashed transaction that commits
// on its first joined-phase replay contributes Stashed=1, Retries=0;
// only additional attempts beyond that replay count as retries.
func TestStashedFirstReplayIsNotARetry(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	db.Store().Preload("hot", store.IntValue(0))
	db.SplitHint("hot", store.OpAdd)
	if !db.RequestSplitPhase() {
		t.Fatal("split refused")
	}
	db.Poll(0)
	// A read of split data stashes.
	if out := run(t, db, 0, func(tx engine.Tx) error {
		_, err := tx.GetInt("hot")
		return err
	}); out != engine.Stashed {
		t.Fatalf("read of split data: %v", out)
	}
	if !db.RequestJoinedPhase() {
		t.Fatal("joined refused")
	}
	db.Poll(0) // drains the stash; the replay commits immediately
	st := db.WorkerStats(0)
	if st.Stashed.Load() != 1 || st.Retries.Load() != 0 {
		t.Fatalf("stashed=%d retries=%d, want 1/0", st.Stashed.Load(), st.Retries.Load())
	}
}

// TestPublishedSliceValueIsNotReused: integer slices accumulate in place,
// and reconcile publishes the slice's own value when the record is
// absent (merging into nothing). That value must never change again,
// even though the next split phase writes the same key's slice.
func TestPublishedSliceValueIsNotReused(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	db.SplitHint("fresh", store.OpAdd)
	phase := func(p Phase) {
		t.Helper()
		ok := db.RequestJoinedPhase()
		if p == PhaseSplit {
			ok = db.RequestSplitPhase()
		}
		if !ok {
			t.Fatalf("transition to %v refused", p)
		}
		db.Poll(0)
		if db.Phase() != p {
			t.Fatalf("phase %v, want %v", db.Phase(), p)
		}
	}
	add := func(n int64) engine.TxFunc {
		return func(tx engine.Tx) error { return tx.Add("fresh", n) }
	}

	phase(PhaseSplit)
	mustCommit(t, db, 0, add(5))
	mustCommit(t, db, 0, add(2))
	phase(PhaseJoined)
	published := db.Store().Get("fresh").Value()
	if n, _ := published.AsInt(); n != 7 {
		t.Fatalf("reconciled value %v, want 7", published)
	}

	phase(PhaseSplit)
	mustCommit(t, db, 0, add(100))
	if n, _ := published.AsInt(); n != 7 {
		t.Fatalf("the published value changed to %v during the next split phase", published)
	}
	phase(PhaseJoined)
	if n, _ := db.Store().Get("fresh").Value().AsInt(); n != 107 {
		t.Fatalf("final value %v, want 107", db.Store().Get("fresh").Value())
	}
}
