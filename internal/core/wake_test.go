package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"doppel/internal/engine"
	"doppel/internal/store"
)

// The tests in this file check the wake-channel contract: with no
// coordinator (PhaseLength 0) and no timer anywhere in the drivers,
// workers that block only on Wake(w) and on the jobs a test hands them
// still complete every transition, drain their stashes and run the
// barrier.

// wakeDriver drives each worker from its own goroutine the way
// doppel.DB does: the goroutine blocks on its job channel and its wake
// channel and nothing else, calls Poll when woken, and completes jobs
// that stashed once the worker's stash has drained.
type wakeDriver struct {
	db   *DB
	jobs []chan func(w int)
	stop chan struct{}
	wg   sync.WaitGroup
}

func startWakeDriver(t *testing.T, db *DB) *wakeDriver {
	d := &wakeDriver{db: db, stop: make(chan struct{})}
	for w := 0; w < db.Workers(); w++ {
		ch := make(chan func(w int))
		d.jobs = append(d.jobs, ch)
		d.wg.Add(1)
		go d.loop(w, ch)
	}
	t.Cleanup(func() {
		close(d.stop)
		d.wg.Wait()
		db.Close()
	})
	return d
}

func (d *wakeDriver) loop(w int, jobs <-chan func(w int)) {
	defer d.wg.Done()
	for {
		select {
		case fn := <-jobs:
			fn(w)
		case <-d.db.Wake(w):
			d.db.Poll(w)
		case <-d.stop:
			return
		}
	}
}

// wait blocks until worker w's next wake; false means the test ended
// first (a lost wakeup, reported by the test's own await).
func (d *wakeDriver) wait(w int) bool {
	select {
	case <-d.db.Wake(w):
		return true
	case <-d.stop:
		return false
	}
}

// submit runs fn as a transaction on worker w. done receives the
// outcome: Committed or UserAbort at once, Stashed only after the stash
// has drained; stashed, if not nil, is closed as soon as fn stashes. A
// Paused attempt waits for the worker's next wake.
func (d *wakeDriver) submit(w int, fn engine.TxFunc, done chan<- engine.Outcome, stashed chan<- struct{}) {
	d.jobs[w] <- func(w int) {
		for {
			out, _ := d.db.Attempt(w, fn, 0)
			switch out {
			case engine.Paused:
				if !d.wait(w) {
					return
				}
				continue
			case engine.Aborted:
				continue
			case engine.Stashed:
				if stashed != nil {
					close(stashed)
				}
				for d.db.StashLen(w) > 0 {
					if !d.wait(w) {
						return
					}
					d.db.Poll(w)
				}
			}
			done <- out
			return
		}
	}
}

// hold occupies worker w's goroutine until the returned function is
// called, so the worker acknowledges nothing meanwhile.
func (d *wakeDriver) hold(w int) (release func()) {
	gate := make(chan struct{})
	d.jobs[w] <- func(int) {
		select {
		case <-gate:
		case <-d.stop:
		}
	}
	return func() { close(gate) }
}

// await fails the test unless ch delivers within a generous bound. The
// bound only guards against a hang; the workers never consult a clock.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never happened: a wakeup was lost", what)
		panic("unreachable")
	}
}

func released(db *DB) <-chan struct{} {
	if tr := db.inflight.Load(); tr != nil {
		return tr.released
	}
	done := make(chan struct{})
	close(done)
	return done
}

func TestWakeCompletesSplitPhase(t *testing.T) {
	db := manualDB(2)
	db.Store().Preload("hot", store.IntValue(0))
	db.SplitHint("hot", store.OpAdd)
	d := startWakeDriver(t, db)

	// Worker 1 is busy while the transition is published, so worker 0
	// acknowledges first and a transaction submitted to it pauses. Both
	// must then move on the wakeups alone.
	release := d.hold(1)
	if !db.RequestSplitPhase() {
		t.Fatal("split phase refused")
	}
	rel := released(db)
	done := make(chan engine.Outcome, 1)
	d.submit(0, func(tx engine.Tx) error { return tx.Add("hot", 1) }, done, nil)
	release()
	await(t, rel, "the split transition")
	if db.Phase() != PhaseSplit {
		t.Fatalf("phase %v after the transition, want split", db.Phase())
	}
	if out := await(t, done, "the paused Add"); out != engine.Committed {
		t.Fatalf("paused Add finished %v, want committed", out)
	}
}

func TestWakeCompletesJoinedPhaseAndDrainsStash(t *testing.T) {
	db := manualDB(2)
	db.Store().Preload("hot", store.IntValue(0))
	db.SplitHint("hot", store.OpAdd)
	d := startWakeDriver(t, db)
	if !db.RequestSplitPhase() {
		t.Fatal("split phase refused")
	}
	await(t, released(db), "the split transition")

	added := make(chan engine.Outcome, 2)
	for w := 0; w < 2; w++ {
		d.submit(w, func(tx engine.Tx) error { return tx.Add("hot", 5) }, added, nil)
	}
	for w := 0; w < 2; w++ {
		if out := await(t, added, "a split-phase Add"); out != engine.Committed {
			t.Fatalf("split-phase Add finished %v", out)
		}
	}
	var seen int64 = -1
	read := make(chan engine.Outcome, 1)
	stashed := make(chan struct{})
	d.submit(0, func(tx engine.Tx) error {
		n, err := tx.GetInt("hot")
		seen = n
		return err
	}, read, stashed)
	await(t, stashed, "the read of split data stashing")

	if !db.RequestJoinedPhase() {
		t.Fatal("joined phase refused")
	}
	if out := await(t, read, "the stashed read's completion"); out != engine.Stashed {
		t.Fatalf("read finished %v, want stashed and then drained", out)
	}
	if db.Phase() != PhaseJoined {
		t.Fatalf("phase %v, want joined", db.Phase())
	}
	if seen != 10 {
		t.Fatalf("stashed read saw %d, want the reconciled 10", seen)
	}
}

func TestWakeCompletesBarrier(t *testing.T) {
	db := manualDB(2)
	startWakeDriver(t, db)
	ran := make(chan struct{})
	if busy := db.RequestBarrier(func() { close(ran) }); busy != nil {
		t.Fatal("barrier refused")
	}
	await(t, ran, "the barrier")
}

// TestStashBudgetEndsSplitPhase: with an hour-long PhaseLength, a read
// of a hinted key that stashes in a split phase which absorbed a slice
// write still commits within a few StashBudgets. The coordinator ends
// the split phase on the stash's age, not on the phase clock, and the
// joined phase after it lasts no longer than that split phase, so the
// engine cycles back to split on its own.
func TestStashBudgetEndsSplitPhase(t *testing.T) {
	const budget = 2 * time.Millisecond
	cfg := DefaultConfig(2)
	cfg.PhaseLength = time.Hour
	cfg.StashBudget = budget
	db := Open(store.New(), cfg)
	db.Store().Preload("hot", store.IntValue(0))
	db.SplitHint("hot", store.OpAdd)
	d := startWakeDriver(t, db)
	if !db.RequestSplitPhase() {
		t.Fatal("split phase refused")
	}
	add := func(tx engine.Tx) error { return tx.Add("hot", 1) }
	read := func(tx engine.Tx) error { _, err := tx.GetInt("hot"); return err }
	var waits []time.Duration
	for len(waits) < 5 {
		// Wait for a split phase; after the first, the coordinator
		// starts each one itself.
		for start := time.Now(); db.Phase() != PhaseSplit; time.Sleep(100 * time.Microsecond) {
			if time.Since(start) > time.Second {
				t.Fatalf("no split phase within 1s after %d stashed reads (PhaseLength is an hour)", len(waits))
			}
		}
		added := make(chan engine.Outcome, 1)
		d.submit(1, add, added, nil)
		await(t, added, "a split-phase Add")
		done := make(chan engine.Outcome, 1)
		stashed := make(chan struct{})
		d.submit(0, read, done, stashed)
		var t0 time.Time
		select {
		case <-stashed:
			t0 = time.Now()
		case <-done:
			continue // the phase changed first; the read ran joined
		}
		await(t, done, "the stashed read's completion")
		waits = append(waits, time.Since(t0))
	}
	slices.Sort(waits)
	t.Logf("stashed read waits %v, budget %v", waits, budget)
	if med := waits[len(waits)/2]; med > 10*budget {
		t.Fatalf("median stashed-read wait %v, want within a few budgets of %v", med, budget)
	}
}

// TestStashEndsIdleSplitPhase: a split phase that has absorbed no slice
// write batches nothing a stashed transaction's wait would pay for, so
// its first stash ends it at once rather than a budget later.
func TestStashEndsIdleSplitPhase(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.PhaseLength = time.Hour
	cfg.StashBudget = time.Hour
	db := Open(store.New(), cfg)
	db.Store().Preload("hot", store.IntValue(0))
	db.SplitHint("hot", store.OpAdd)
	d := startWakeDriver(t, db)
	if !db.RequestSplitPhase() {
		t.Fatal("split phase refused")
	}
	await(t, released(db), "the split transition")
	done := make(chan engine.Outcome, 1)
	d.submit(0, func(tx engine.Tx) error { _, err := tx.GetInt("hot"); return err }, done, nil)
	if out := await(t, done, "the stashed read's completion"); out != engine.Stashed {
		t.Fatalf("read finished %v, want stashed and then drained", out)
	}
	if db.Phase() != PhaseJoined {
		t.Fatalf("phase %v after the drain, want joined", db.Phase())
	}
}
