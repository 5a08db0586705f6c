package core

import (
	"cmp"
	"slices"

	"doppel/internal/store"
)

// candidate is a key the classifier is considering splitting.
type candidate struct {
	key       string
	op        store.OpKind
	conflicts uint64
}

// classScratch is the classifier's state between decisions, guarded by
// DB.classMu. Its maps are cleared and refilled rather than rebuilt,
// and the last split set is kept while the assignment does not change,
// so a phase cycle with a stable split set allocates nothing here.
type classScratch struct {
	conflicts map[string]opCounts     // this decision's joined-phase conflict samples
	cands     []candidate             // this decision's promotion candidates
	assign    map[string]store.OpKind // the assignment being published
	set       *splitSet               // the last set built; reused while assign matches it

	// The keep window: split-phase evidence accumulated since the last
	// keep/demote judgment. It closes once it holds PhaseLength of split
	// time, so budget-cut split phases are judged together, at the rate
	// a full-length phase would show.
	keepOpen     bool
	keepNs       int64             // split time in the window
	keepAttempts uint64            // transaction attempts in the window
	keepKeys     map[string]bool   // keys split in every split phase of the window
	keepWrites   map[string]uint64 // slice writes per key
	keepStashes  map[string]opCounts
}

func newClassScratch() classScratch {
	return classScratch{
		conflicts:   map[string]opCounts{},
		assign:      map[string]store.OpKind{},
		keepKeys:    map[string]bool{},
		keepWrites:  map[string]uint64{},
		keepStashes: map[string]opCounts{},
	}
}

// decideNextSplit implements §5.5: it aggregates the workers' conflict
// samples from the elapsed joined phase(s) and the write/stash samples
// from the split phases since the last keep/demote judgment, demotes
// split records that cooled off or are read-dominated, promotes the
// most-conflicted records whose conflicts come from a splittable
// operation, folds in manual hints, and returns the split set for the
// next split phase.
func (db *DB) decideNextSplit() *splitSet {
	cfg := &db.cfg
	db.classMu.Lock()
	defer db.classMu.Unlock()
	c := &db.class

	// Aggregate and clear the per-worker samples.
	clear(c.conflicts)
	var attempts uint64
	for _, w := range db.workers {
		attempts += w.attemptsWindow.Swap(0)
		w.statsMu.Lock()
		addCounts(c.conflicts, w.conflicts)
		clear(w.conflicts)
		for k, n := range w.splitWrites {
			c.keepWrites[k] += n
		}
		clear(w.splitWrites)
		addCounts(c.keepStashes, w.splitStashes)
		clear(w.splitStashes)
		w.statsMu.Unlock()
	}

	// The split phase that just ended (if any) joins the keep window.
	// Only keys that went through every split phase of the window are
	// judged, so a fresh promotion is not demoted for lack of data.
	c.keepNs += db.splitNs.Swap(0)
	c.keepAttempts += attempts
	if !c.keepOpen {
		c.keepOpen = true
		for k := range db.lastSplit {
			c.keepKeys[k] = true
		}
	} else {
		for k := range c.keepKeys {
			if !db.lastSplit[k] {
				delete(c.keepKeys, k)
			}
		}
	}
	judge := cfg.PhaseLength <= 0 || c.keepNs >= int64(cfg.PhaseLength)

	if !cfg.DisableAutoSplit {
		if judge {
			db.demote()
		}

		// Promotions from joined-phase conflict samples.
		scale := uint64(cfg.SampleRate)
		cands := c.cands[:0]
		for k, oc := range c.conflicts {
			if _, already := db.curAssign[k]; already {
				continue
			}
			op, splitConf := dominantSplittable(oc)
			if op == store.OpNone {
				continue
			}
			incompat := uint64(oc[store.OpGet]) + uint64(oc[store.OpPut])
			if splitConf < uint64(cfg.SplitMinConflicts) {
				continue
			}
			if float64(splitConf*scale) < cfg.SplitFraction*float64(attempts) {
				continue
			}
			if float64(incompat) > cfg.ReadDominance*float64(splitConf) {
				continue
			}
			cands = append(cands, candidate{k, op, splitConf})
		}
		slices.SortFunc(cands, func(a, b candidate) int {
			if a.conflicts != b.conflicts {
				return cmp.Compare(b.conflicts, a.conflicts)
			}
			return cmp.Compare(a.key, b.key)
		})
		for _, cd := range cands {
			if len(db.curAssign) >= cfg.MaxSplitKeys {
				break
			}
			db.curAssign[cd.key] = cd.op
		}
		clear(cands)
		c.cands = cands[:0]
	}
	if judge || len(c.keepKeys) == 0 {
		c.keepOpen, c.keepNs, c.keepAttempts = false, 0, 0
		clear(c.keepKeys)
		clear(c.keepWrites)
		clear(c.keepStashes)
	}

	// Manual hints always apply.
	for k, op := range db.hints {
		db.curAssign[k] = op
	}

	clear(db.lastSplit)
	clear(c.assign)
	for k, op := range db.curAssign {
		// Never split a key that currently carries a commit fence: an
		// in-flight cross-shard commit has validated the record, and
		// reconciliation merges slices without fence checks, so splitting
		// now could change the record inside the commit's prepare→apply
		// window. The assignment stays; the key is reconsidered at the
		// next phase change (fences live for microseconds). This early
		// skip is advisory — a fence can still land between here and
		// publication — so completeTransition re-filters the set under
		// the publication lock, which is the authoritative check.
		if rec := db.st.Get(k); rec != nil && rec.FenceToken() != 0 {
			continue
		}
		c.assign[k] = op
		db.lastSplit[k] = true
	}
	if len(c.assign) == 0 {
		return emptySplitSet
	}
	if !c.set.matches(db.st, c.assign) {
		c.set = newSplitSet(db.st, c.assign)
	}
	return c.set
}

// demote applies the keep/demote rule to the keys of the closing keep
// window. A key is demoted when its slice writes per PhaseLength of
// split time fall below KeepMinWrites, when its writes fall below
// KeepWriteFraction of the window's attempts, or when its stashes
// exceed ReadDominance times its writes; a key whose stashes are
// dominated by another splittable operation switches to it (§5.5: "or
// change its assigned operation"). Hinted keys are never judged. The
// caller holds classMu.
func (db *DB) demote() {
	cfg, c := &db.cfg, &db.class
	for k := range c.keepKeys {
		if _, split := db.curAssign[k]; !split {
			continue
		}
		if _, hinted := db.hints[k]; hinted {
			continue
		}
		writes := c.keepWrites[k]
		rate := writes
		if cfg.PhaseLength > 0 && c.keepNs > 0 {
			rate = uint64(float64(writes) * float64(cfg.PhaseLength) / float64(c.keepNs))
		}
		stashes := total(c.keepStashes[k])
		if rate < uint64(cfg.KeepMinWrites) ||
			writes < uint64(cfg.KeepWriteFraction*float64(c.keepAttempts)) ||
			float64(stashes) > cfg.ReadDominance*float64(writes) {
			delete(db.curAssign, k)
			continue
		}
		if op, n := dominantSplittable(c.keepStashes[k]); op != store.OpNone && n > writes {
			db.curAssign[k] = op
		}
	}
}

// addCounts adds every per-operation count of src into dst.
func addCounts(dst, src map[string]opCounts) {
	for k, oc := range src {
		sum := dst[k]
		for i := range oc {
			sum[i] += oc[i]
		}
		dst[k] = sum
	}
}

// total sums an opCounts.
func total(oc opCounts) uint64 {
	var n uint64
	for _, c := range oc {
		n += uint64(c)
	}
	return n
}

// dominantSplittable returns the splittable operation with the highest
// count and the total count across all splittable operations, or OpNone
// when there are none.
func dominantSplittable(oc opCounts) (store.OpKind, uint64) {
	best := store.OpNone
	var bestN uint32
	var totalN uint64
	for i := range oc {
		k := store.OpKind(i)
		if !k.Splittable() || oc[i] == 0 {
			continue
		}
		totalN += uint64(oc[i])
		if oc[i] > bestN {
			bestN = oc[i]
			best = k
		}
	}
	return best, totalN
}
