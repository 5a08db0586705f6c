package core

import (
	"sort"

	"doppel/internal/store"
)

// splitKey is one record marked as split data for the current split
// phase, with its single selected operation (§4 guideline 3).
type splitKey struct {
	key string
	op  store.OpKind
	rec *store.Record
	idx int // dense index into each worker's slice array
}

// splitSet is the immutable set of split records for one split phase. It
// is built by the classifier during the joined→split transition and
// published atomically; workers index their per-core slices by the dense
// idx assigned here.
type splitSet struct {
	keys map[string]*splitKey
	list []*splitKey // ordered by idx
}

// emptySplitSet is the canonical empty set.
var emptySplitSet = &splitSet{keys: map[string]*splitKey{}}

// newSplitSet builds a split set from key→operation assignments,
// resolving records in st. Keys are indexed in sorted order so the set is
// deterministic for a given assignment.
func newSplitSet(st *store.Store, assign map[string]store.OpKind) *splitSet {
	if len(assign) == 0 {
		return emptySplitSet
	}
	keys := make([]string, 0, len(assign))
	for k := range assign {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	set := &splitSet{
		keys: make(map[string]*splitKey, len(assign)),
		list: make([]*splitKey, 0, len(assign)),
	}
	for i, k := range keys {
		rec, _ := st.GetOrCreate(k)
		sk := &splitKey{key: k, op: assign[k], rec: rec, idx: i}
		set.keys[k] = sk
		set.list = append(set.list, sk)
	}
	return set
}

// withoutFenced returns s minus every key whose record currently
// carries a commit fence, re-indexed densely. It is called at
// publication time, under the transition publication lock: a
// cross-shard prepare installs its fences before checking SplitActive
// under that same lock, so a fence invisible here implies the prepare
// will see the published set and retry. The common case — no fenced
// keys — returns s unchanged.
func (s *splitSet) withoutFenced() *splitSet {
	if s.size() == 0 {
		return s
	}
	fenced := 0
	for _, sk := range s.list {
		if sk.rec.FenceToken() != 0 {
			fenced++
		}
	}
	if fenced == 0 {
		return s
	}
	if fenced == len(s.list) {
		return emptySplitSet
	}
	out := &splitSet{
		keys: make(map[string]*splitKey, len(s.list)-fenced),
		list: make([]*splitKey, 0, len(s.list)-fenced),
	}
	for _, sk := range s.list {
		if sk.rec.FenceToken() != 0 {
			continue
		}
		nsk := &splitKey{key: sk.key, op: sk.op, rec: sk.rec, idx: len(out.list)}
		out.keys[nsk.key] = nsk
		out.list = append(out.list, nsk)
	}
	return out
}

// matches reports whether s splits exactly the keys of assign, each
// with its assigned operation and over the record st holds for it now.
// The classifier then republishes s instead of building an equal set.
func (s *splitSet) matches(st *store.Store, assign map[string]store.OpKind) bool {
	if s == nil || len(s.list) != len(assign) {
		return false
	}
	for _, sk := range s.list {
		if op, ok := assign[sk.key]; !ok || op != sk.op || st.Get(sk.key) != sk.rec {
			return false
		}
	}
	return true
}

// lookup returns the split entry for key, or nil.
func (s *splitSet) lookup(key string) *splitKey {
	if s == nil || len(s.keys) == 0 {
		return nil
	}
	return s.keys[key]
}

// size returns the number of split records.
func (s *splitSet) size() int {
	if s == nil {
		return 0
	}
	return len(s.list)
}

// keyNames returns the split keys in index order (for stats and tests).
func (s *splitSet) keyNames() []string {
	out := make([]string, 0, s.size())
	for _, sk := range s.list {
		out = append(out, sk.key)
	}
	return out
}
