package core

// Conflict-parked requests: a request submitted with Run whose run
// aborts on a conflict is parked on its worker beside the fence-parked
// ones, and Poll retries it after the wake the abort leaves.

import (
	"testing"
	"time"

	"doppel/internal/engine"
	"doppel/internal/store"
)

// TestConflictParkedRunRetriedByPoll: a Run whose body conflict-aborts
// once is held by the worker, not handed back to the caller. A request
// Run after it on the same worker commits first, and the next Poll
// commits the held one, completing it exactly once.
func TestConflictParkedRunRetriedByPoll(t *testing.T) {
	db := manualDB(1)
	t.Cleanup(db.Close)
	db.Store().Preload("k", store.IntValue(0))
	var first, second outcomes
	runs := 0
	addOnce := func(tx engine.Tx) error {
		if runs++; runs == 1 {
			return engine.ErrAbort
		}
		return tx.Add("k", 1)
	}
	db.Run(0, addOnce, 0, &first)
	if len(first) != 0 || db.StashLen(0) != 1 {
		t.Fatalf("after the conflict: completions %v, %d held; want none and 1", first, db.StashLen(0))
	}
	select {
	case <-db.Wake(0):
	default:
		t.Fatal("the conflict abort left no wake for its retry")
	}
	db.Run(0, func(tx engine.Tx) error { return tx.PutInt("k", 10) }, 0, &second)
	if len(second) != 1 || second[0] != nil || len(first) != 0 {
		t.Fatalf("second request: completions %v, first %v; want it committed ahead of the held one", second, first)
	}
	db.Poll(0)
	db.Poll(0)
	if len(first) != 1 || first[0] != nil || db.StashLen(0) != 0 {
		t.Fatalf("after Poll: completions %v, %d held; want one nil and 0", first, db.StashLen(0))
	}
	if n, _ := db.Store().Get("k").Value().AsInt(); n != 11 || runs != 2 {
		t.Fatalf("k = %d after %d runs, want 11 after 2", n, runs)
	}
	if s := db.WorkerStats(0); s.Aborted.Load() != 1 || s.Retries.Load() != 0 {
		t.Fatalf("aborted=%d retries=%d, want 1 and 0 (the first replay is not a retry)", s.Aborted.Load(), s.Retries.Load())
	}
}

// TestConflictParkedWaitsForUnlock: a request that conflicted on a
// locked record is not retried until a peer's commit, which has released
// its locks, wakes its worker: a retry while the lock is held would only
// fail again.
func TestConflictParkedWaitsForUnlock(t *testing.T) {
	db := manualDB(2)
	t.Cleanup(db.Close)
	db.Store().Preload("k", store.IntValue(0))
	rec := db.Store().Get("k")
	rec.Lock() // held as a peer's commit would hold it
	var done outcomes
	db.Run(0, func(tx engine.Tx) error { return tx.Add("k", 1) }, 0, &done)
	if len(done) != 0 || db.StashLen(0) != 1 {
		t.Fatalf("after the conflict: completions %v, %d held; want none and 1", done, db.StashLen(0))
	}
	select {
	case <-db.Wake(0):
		t.Fatal("woken while the record is still locked")
	default:
	}
	rec.Unlock()
	if !db.Run(1, func(tx engine.Tx) error { return tx.PutInt("other", 1) }, 0, &outcomes{}) {
		t.Fatal("peer's Run paused")
	}
	select {
	case <-db.Wake(0):
	default:
		t.Fatal("the peer's commit did not wake the parked request's worker")
	}
	db.Poll(0)
	if len(done) != 1 || done[0] != nil || db.StashLen(0) != 0 {
		t.Fatalf("after the wake: completions %v, %d held; want one nil and 0", done, db.StashLen(0))
	}
}

// TestParkedRetriedBeforeSplit: a worker retries its conflict-parked
// requests before it acknowledges a transition into a split phase, so
// the retry still runs joined. Worker 1 has not acknowledged, so the
// transition is still in flight when worker 0's retry commits.
func TestParkedRetriedBeforeSplit(t *testing.T) {
	db := manualDB(2)
	t.Cleanup(db.Close)
	db.Store().Preload("hot", store.IntValue(0))
	db.SplitHint("hot", store.OpAdd)
	var done outcomes
	runs := 0
	var ranIn []Phase
	read := func(tx engine.Tx) error {
		if runs++; runs == 1 {
			return engine.ErrAbort
		}
		ranIn = append(ranIn, db.Phase())
		_, err := tx.GetInt("hot")
		return err
	}
	db.Run(0, read, 0, &done)
	if !db.RequestSplitPhase() {
		t.Fatal("split phase refused")
	}
	db.Poll(0)
	if len(done) != 1 || done[0] != nil || db.StashLen(0) != 0 {
		t.Fatalf("after worker 0's acknowledgement: completions %v, %d held; want one nil and 0", done, db.StashLen(0))
	}
	if len(ranIn) != 1 || ranIn[0] != PhaseJoined {
		t.Fatalf("retry ran in %v, want once in the joined phase", ranIn)
	}
	db.Poll(1)
	if db.Phase() != PhaseSplit {
		t.Fatalf("phase %v after both acknowledgements, want split", db.Phase())
	}
}

// TestHeldRequestDroppedAfterMaxReplays reaches the StashDropped path: a
// held request whose every replay conflict-aborts is dropped after
// maxReplays replays and completed with an error, one replay per wake,
// and the worker goes on committing. Poll is driven the way a doppel
// worker drives it: block on the wake channel, then Poll.
func TestHeldRequestDroppedAfterMaxReplays(t *testing.T) {
	db := manualDB(1)
	t.Cleanup(db.Close)
	var done outcomes
	db.Run(0, func(engine.Tx) error { return engine.ErrAbort }, 0, &done)
	timeout := time.After(time.Minute)
	polls := 0
	for len(done) == 0 {
		select {
		case <-db.Wake(0):
			db.Poll(0)
			polls++
		case <-timeout:
			t.Fatalf("not dropped after %d polls: a wakeup was lost", polls)
		}
	}
	if len(done) != 1 || done[0] == nil || polls != maxReplays {
		t.Fatalf("completions %v after %d polls; want one error after %d", done, polls, maxReplays)
	}
	s := db.WorkerStats(0)
	if s.StashDropped.Load() != 1 || s.Retries.Load() != maxReplays-1 || db.StashLen(0) != 0 {
		t.Fatalf("dropped=%d retries=%d held=%d; want 1, %d and 0",
			s.StashDropped.Load(), s.Retries.Load(), db.StashLen(0), maxReplays-1)
	}
	var next outcomes
	db.Run(0, func(tx engine.Tx) error { return tx.PutInt("k", 1) }, 0, &next)
	if len(next) != 1 || next[0] != nil {
		t.Fatalf("request after the drop: completions %v, want one nil", next)
	}
}

// TestReplaysCountAsAttempts: every run of a held request counts in the
// classifier's attempt window, not only its first. Replays take
// conflict samples like first attempts do, so leaving them out of the
// denominator would inflate the conflict fraction decideNextSplit
// computes.
func TestReplaysCountAsAttempts(t *testing.T) {
	const k = 5
	db := manualDB(1)
	t.Cleanup(db.Close)
	runs := 0
	body := func(tx engine.Tx) error {
		if runs++; runs <= k {
			return engine.ErrAbort
		}
		return tx.PutInt("k", 1)
	}
	var done outcomes
	db.Run(0, body, 0, &done)
	for i := 0; i < k && len(done) == 0; i++ {
		db.Poll(0)
	}
	if len(done) != 1 || done[0] != nil || runs != k+1 {
		t.Fatalf("completions %v after %d runs, want one nil after %d", done, runs, k+1)
	}
	if got := db.workers[0].attemptsWindow.Load(); got != k+1 {
		t.Fatalf("attemptsWindow = %d after a held request replayed %d times, want %d", got, k, k+1)
	}
}
