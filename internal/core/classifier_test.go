package core

import (
	"fmt"
	"testing"
	"time"

	"doppel/internal/engine"
	"doppel/internal/store"
)

// feedConflicts injects sampled conflicts as if worker w had observed
// them during a joined phase.
func feedConflicts(db *DB, w int, key string, op store.OpKind, n int) {
	for i := 0; i < n; i++ {
		db.workers[w].sampleConflict(key, op)
	}
}

func setAttempts(db *DB, w int, n uint64) {
	db.workers[w].attemptsWindow.Store(n)
}

func TestClassifierPromotesContendedKey(t *testing.T) {
	db := manualDB(2)
	defer db.Close()
	feedConflicts(db, 0, "hot", store.OpAdd, 50)
	feedConflicts(db, 1, "hot", store.OpAdd, 50)
	feedConflicts(db, 0, "cool", store.OpAdd, 1)
	setAttempts(db, 0, 500)
	setAttempts(db, 1, 500)
	set := db.decideNextSplit()
	if set.size() != 1 || set.lookup("hot") == nil {
		t.Fatalf("split set %v", set.keyNames())
	}
	if set.lookup("hot").op != store.OpAdd {
		t.Fatalf("selected op %v", set.lookup("hot").op)
	}
}

func TestClassifierIgnoresBelowMinConflicts(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	feedConflicts(db, 0, "k", store.OpAdd, db.cfg.SplitMinConflicts-1)
	setAttempts(db, 0, 10)
	if set := db.decideNextSplit(); set.size() != 0 {
		t.Fatalf("split set %v", set.keyNames())
	}
}

func TestClassifierIgnoresBelowFraction(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	// 20 conflicts out of a million attempts: real but negligible.
	feedConflicts(db, 0, "k", store.OpAdd, 20)
	setAttempts(db, 0, 1_000_000)
	if set := db.decideNextSplit(); set.size() != 0 {
		t.Fatalf("split set %v", set.keyNames())
	}
}

func TestClassifierRefusesReadDominatedKey(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	feedConflicts(db, 0, "k", store.OpAdd, 20)
	feedConflicts(db, 0, "k", store.OpGet, 100) // reads conflict 5x more
	setAttempts(db, 0, 400)
	if set := db.decideNextSplit(); set.size() != 0 {
		t.Fatalf("read-dominated key split: %v", set.keyNames())
	}
}

func TestClassifierRefusesUnsplittableConflicts(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	feedConflicts(db, 0, "k", store.OpPut, 200)
	setAttempts(db, 0, 400)
	if set := db.decideNextSplit(); set.size() != 0 {
		t.Fatalf("Put-contended key split: %v", set.keyNames())
	}
}

func TestClassifierMaxSplitKeysCap(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PhaseLength = 0
	cfg.MaxSplitKeys = 3
	db := Open(store.New(), cfg)
	defer db.Close()
	for i := 0; i < 10; i++ {
		feedConflicts(db, 0, fmt.Sprintf("k%d", i), store.OpAdd, 20+i)
	}
	setAttempts(db, 0, 100)
	set := db.decideNextSplit()
	if set.size() != 3 {
		t.Fatalf("cap not applied: %v", set.keyNames())
	}
	// The most conflicted keys win.
	for _, k := range []string{"k9", "k8", "k7"} {
		if set.lookup(k) == nil {
			t.Fatalf("expected %s in %v", k, set.keyNames())
		}
	}
}

func TestClassifierDemotesColdKey(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	// Promote.
	feedConflicts(db, 0, "k", store.OpAdd, 100)
	setAttempts(db, 0, 200)
	if set := db.decideNextSplit(); set.size() != 1 {
		t.Fatal("promotion failed")
	}
	// One split phase passes with almost no writes: demote.
	db.workers[0].statsMu.Lock()
	db.workers[0].splitWrites["k"] = 1
	db.workers[0].statsMu.Unlock()
	setAttempts(db, 0, 200)
	if set := db.decideNextSplit(); set.size() != 0 {
		t.Fatalf("cold key kept split: %v", set.keyNames())
	}
}

func TestClassifierKeepsHotKey(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	feedConflicts(db, 0, "k", store.OpAdd, 100)
	setAttempts(db, 0, 200)
	if set := db.decideNextSplit(); set.size() != 1 {
		t.Fatal("promotion failed")
	}
	// Heavy split-phase writes, few stashes: stays split even with no
	// new joined-phase conflicts (split keys cannot conflict, §5.5).
	db.workers[0].statsMu.Lock()
	db.workers[0].splitWrites["k"] = 5000
	db.workers[0].statsMu.Unlock()
	setAttempts(db, 0, 200)
	if set := db.decideNextSplit(); set.size() != 1 {
		t.Fatal("hot key demoted")
	}
}

func TestClassifierDemotesStashDominatedKey(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	feedConflicts(db, 0, "k", store.OpAdd, 100)
	setAttempts(db, 0, 200)
	if set := db.decideNextSplit(); set.size() != 1 {
		t.Fatal("promotion failed")
	}
	w := db.workers[0]
	w.statsMu.Lock()
	w.splitWrites["k"] = 100
	var oc opCounts
	oc[store.OpGet] = 500 // reads stashed 5x the writes
	w.splitStashes["k"] = oc
	w.statsMu.Unlock()
	setAttempts(db, 0, 200)
	if set := db.decideNextSplit(); set.size() != 0 {
		t.Fatalf("stash-dominated key kept: %v", set.keyNames())
	}
}

func TestClassifierSwitchesSelectedOp(t *testing.T) {
	db := manualDB(1)
	defer db.Close()
	feedConflicts(db, 0, "k", store.OpAdd, 100)
	setAttempts(db, 0, 200)
	set := db.decideNextSplit()
	if set.lookup("k").op != store.OpAdd {
		t.Fatal("initial op")
	}
	// During the split phase most traffic wanted Max, not Add.
	w := db.workers[0]
	w.statsMu.Lock()
	w.splitWrites["k"] = 50
	var oc opCounts
	oc[store.OpMax] = 120
	w.splitStashes["k"] = oc
	w.statsMu.Unlock()
	setAttempts(db, 0, 200)
	set = db.decideNextSplit()
	if set.size() != 1 || set.lookup("k").op != store.OpMax {
		t.Fatalf("op not switched: %v", set.keyNames())
	}
}

func TestClassifierDisableAutoSplit(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.PhaseLength = 0
	cfg.DisableAutoSplit = true
	db := Open(store.New(), cfg)
	defer db.Close()
	feedConflicts(db, 0, "k", store.OpAdd, 1000)
	setAttempts(db, 0, 1000)
	if set := db.decideNextSplit(); set.size() != 0 {
		t.Fatal("auto split despite disable")
	}
	db.SplitHint("m", store.OpMax)
	if set := db.decideNextSplit(); set.size() != 1 || set.lookup("m") == nil {
		t.Fatal("hint ignored")
	}
}

func TestClassifierNewPromotionNotInstantlyDemoted(t *testing.T) {
	// A key promoted in this decision round has no split-phase write
	// data yet; it must survive the next decision round's demotion scan
	// only if it went through a split phase. Simulate: promote, then
	// decide again with no split-phase data at all (no split phase ran).
	db := manualDB(1)
	defer db.Close()
	feedConflicts(db, 0, "k", store.OpAdd, 100)
	setAttempts(db, 0, 200)
	if set := db.decideNextSplit(); set.size() != 1 {
		t.Fatal("promotion failed")
	}
	// lastSplit now records k; a second decide with zero split write
	// data should demote (the split phase happened, nothing was
	// written). That is correct cold-key behaviour. But if the split
	// phase never ran (lastSplit cleared), the key must be kept.
	db.classMu.Lock()
	db.lastSplit = map[string]bool{}
	db.classMu.Unlock()
	setAttempts(db, 0, 10)
	if set := db.decideNextSplit(); set.size() != 1 {
		t.Fatal("promotion demoted without split-phase evidence")
	}
}

// TestEndToEndAutoSplitUnderContention drives real contention through
// the engine with the classifier in control: two workers, interleaved at
// the transaction level by running on the same goroutine, cannot
// conflict, so we inject conflicts via a read-modify-write race pattern:
// worker 1 commits writes between worker 0's read and commit.
func TestEndToEndAutoSplitUnderContention(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.PhaseLength = 0
	cfg.SplitMinConflicts = 5
	cfg.SplitFraction = 0.001
	db := Open(store.New(), cfg)
	defer db.Close()
	db.Store().Preload("hot", store.IntValue(0))

	// Manufacture real OCC conflicts on "hot".
	for i := 0; i < 20; i++ {
		out, err := db.Attempt(0, func(tx engine.Tx) error {
			if err := tx.Add("hot", 1); err != nil {
				return err
			}
			// Interleaved committer.
			mustCommit(t, db, 1, func(tx2 engine.Tx) error { return tx2.Add("hot", 1) })
			return nil
		}, engine.Now())
		if err != nil {
			t.Fatal(err)
		}
		if out != engine.Aborted {
			t.Fatalf("iteration %d: expected abort, got %v", i, out)
		}
	}
	if !db.RequestSplitPhase() {
		t.Fatal("classifier did not split the contended key")
	}
	db.Poll(0)
	db.Poll(1)
	if db.Phase() != PhaseSplit {
		t.Fatal("not split")
	}
	keys := db.SplitKeys()
	if len(keys) != 1 || keys[0] != "hot" {
		t.Fatalf("split keys %v", keys)
	}
}

// TestClassifierKeepsSteadyKeyUnderBudgetCutPhases: a promoted key with
// steady moderate writes and a read in every split phase stays split
// when the stash budget cuts split phases to about a millisecond. Two
// slice writes per phase is below KeepMinWrites (4), so judging each
// phase on its own would demote it; judged per PhaseLength of split
// time it writes about two hundred. The cold control, reads and no
// writes, is demoted in the same time.
func TestClassifierKeepsSteadyKeyUnderBudgetCutPhases(t *testing.T) {
	const phaseLength = 100 * time.Millisecond
	for _, tc := range []struct {
		name   string
		writes int
		split  bool
	}{{"steady", 2, true}, {"cold", 0, false}} {
		t.Run(tc.name, func(t *testing.T) {
			db := manualDB(2)
			defer db.Close()
			// No coordinator runs (it starts only when Open sees a
			// PhaseLength); the classifier reads PhaseLength as the
			// length of split time its keep/demote rule is judged over.
			db.cfg.PhaseLength = phaseLength
			db.Store().Preload("k", store.IntValue(0))
			feedConflicts(db, 0, "k", store.OpAdd, 100)
			setAttempts(db, 0, 200)
			add := func(tx engine.Tx) error { return tx.Add("k", 1) }
			read := func(tx engine.Tx) error { _, err := tx.GetInt("k"); return err }
			start := time.Now()
			for time.Since(start) < 3*phaseLength {
				if !db.RequestSplitPhase() {
					break // demoted: nothing left to split
				}
				db.Poll(0)
				db.Poll(1)
				for i := 0; i < tc.writes; i++ {
					mustCommit(t, db, 0, add)
				}
				if out := run(t, db, 1, read); out != engine.Stashed {
					t.Fatalf("split-phase read %v, want stashed", out)
				}
				time.Sleep(time.Millisecond)
				if !db.RequestJoinedPhase() {
					t.Fatal("joined phase refused")
				}
				db.Poll(0)
				db.Poll(1)
			}
			if split := len(db.SplitKeys()) == 1; split != tc.split {
				t.Fatalf("after %v of ~1 ms split phases: split=%v, want %v", time.Since(start), split, tc.split)
			}
		})
	}
}
