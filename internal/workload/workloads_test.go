package workload

import (
	"strings"
	"testing"

	"doppel/internal/engine"
	"doppel/internal/occ"
	"doppel/internal/rng"
	"doppel/internal/store"
)

func TestKeySpace(t *testing.T) {
	ks := NewKeySpace('k', 100)
	if ks.N() != 100 {
		t.Fatal("N")
	}
	if len(ks.Key(0)) != 16 || len(ks.Key(99)) != 16 {
		t.Fatalf("key length %d", len(ks.Key(0)))
	}
	if !strings.HasPrefix(ks.Key(5), "k") {
		t.Fatal("prefix")
	}
	if ks.Key(5) == ks.Key(6) {
		t.Fatal("keys must differ")
	}
}

// exec runs a generated transaction against a tiny OCC engine to verify
// the generators produce executable bodies.
func exec(t *testing.T, e *occ.Engine, fn engine.TxFunc) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		out, err := e.Attempt(0, fn, engine.Now())
		if err != nil {
			t.Fatalf("user error: %v", err)
		}
		if out == engine.Committed {
			return
		}
	}
	t.Fatal("never committed")
}

func TestIncr1HotFraction(t *testing.T) {
	ks := NewKeySpace('k', 1000)
	g := &Incr1{Keys: ks, HotKey: 7, HotFrac: 0.3}
	r := rng.New(5)
	st := store.New()
	e := occ.New(st, 1)
	const n = 20000
	for i := 0; i < n; i++ {
		fn, isWrite := g.Next(0, r)
		if !isWrite {
			t.Fatal("INCR1 txns are writes")
		}
		exec(t, e, fn)
	}
	hot, _ := st.Get(ks.Key(7)).Value().AsInt()
	frac := float64(hot) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("hot fraction %.3f, want ~0.30", frac)
	}
	// Conservation: total increments == n.
	var total int64
	st.Range(func(k string, rec *store.Record) bool {
		n, _ := rec.Value().AsInt()
		total += n
		return true
	})
	if total != n {
		t.Fatalf("total %d != %d", total, n)
	}
}

func TestIncr1NeverPicksHotForColdDraw(t *testing.T) {
	// With HotFrac 0 the hot key must never be chosen.
	ks := NewKeySpace('k', 10)
	g := &Incr1{Keys: ks, HotKey: 3, HotFrac: 0}
	r := rng.New(11)
	st := store.New()
	e := occ.New(st, 1)
	for i := 0; i < 5000; i++ {
		fn, _ := g.Next(0, r)
		exec(t, e, fn)
	}
	if rec := st.Get(ks.Key(3)); rec != nil && rec.Value() != nil {
		n, _ := rec.Value().AsInt()
		if n != 0 {
			t.Fatalf("hot key incremented %d times with HotFrac=0", n)
		}
	}
}

func TestIncrZSkew(t *testing.T) {
	ks := NewKeySpace('k', 500)
	g := &IncrZ{Keys: ks, Zipf: NewZipf(500, 1.5)}
	r := rng.New(21)
	st := store.New()
	e := occ.New(st, 1)
	const n = 10000
	for i := 0; i < n; i++ {
		fn, isWrite := g.Next(0, r)
		if !isWrite {
			t.Fatal("INCRZ txns are writes")
		}
		exec(t, e, fn)
	}
	// Analytically, P(rank 0) = 1/H(500, 1.5) ≈ 0.397.
	top, _ := st.Get(ks.Key(0)).Value().AsInt()
	if f := float64(top) / n; f < 0.37 || f > 0.43 {
		t.Fatalf("alpha=1.5 top key got %.3f of writes, want ~0.397", f)
	}
}

func TestLikeMixAndConservation(t *testing.T) {
	users := NewKeySpace('u', 200)
	pages := NewKeySpace('p', 200)
	g := &Like{Users: users, Pages: pages, PageZipf: NewZipf(200, 1.4), WriteFrac: 0.5}
	r := rng.New(33)
	st := store.New()
	e := occ.New(st, 1)
	writes := 0
	const n = 10000
	for i := 0; i < n; i++ {
		fn, isWrite := g.Next(0, r)
		if isWrite {
			writes++
		}
		exec(t, e, fn)
	}
	if f := float64(writes) / n; f < 0.47 || f > 0.53 {
		t.Fatalf("write fraction %.3f", f)
	}
	var total int64
	for i := 0; i < pages.N(); i++ {
		if rec := st.Get(pages.Key(i)); rec != nil && rec.Value() != nil {
			c, err := rec.Value().AsInt()
			if err != nil {
				t.Fatalf("page record type: %v", err)
			}
			total += c
		}
	}
	if total != int64(writes) {
		t.Fatalf("page counts %d != writes %d", total, writes)
	}
}
