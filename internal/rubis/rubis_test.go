package rubis

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/occ"
	"doppel/internal/rng"
	"doppel/internal/store"
	"doppel/internal/twopl"
)

func TestRowCodecs(t *testing.T) {
	b := Bid{Item: 5, Bidder: 9, Price: 1234}
	got, err := DecodeBid(EncodeBid(b))
	if err != nil || got != b {
		t.Fatalf("bid: %+v %v", got, err)
	}
	if _, err := DecodeBid([]byte("short")); err == nil {
		t.Fatal("short bid should fail")
	}
	it := Item{Seller: 3, Category: 7, Region: 11, Name: "vase"}
	gi, err := DecodeItem(EncodeItem(it))
	if err != nil || gi != it {
		t.Fatalf("item: %+v %v", gi, err)
	}
	if _, err := DecodeItem(nil); err == nil {
		t.Fatal("short item should fail")
	}
	c := Comment{From: 1, To: 2, Item: 3, Rating: 4, Text: "ok"}
	gc, err := DecodeComment(EncodeComment(c))
	if err != nil || gc != c {
		t.Fatalf("comment: %+v %v", gc, err)
	}
	if _, err := DecodeComment([]byte("x")); err == nil {
		t.Fatal("short comment should fail")
	}
}

func TestKeysDistinct(t *testing.T) {
	keys := []string{
		UserKey(1), RatingKey(1), ItemKey(1), MaxBidKey(1), MaxBidderKey(1),
		NumBidsKey(1), BidsPerItemIndexKey(1), BidKey(1), CommentKey(1),
		BuyNowKey(1), CategoryIndexKey(1), RegionIndexKey(1),
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if len(k) != 16 {
			t.Fatalf("key %q not 16 bytes", k)
		}
		if seen[k] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = true
	}
}

func commit(t *testing.T, e engine.Engine, w int, fn engine.TxFunc) {
	t.Helper()
	for i := 0; i < 100000; i++ {
		out, err := e.Attempt(w, fn, engine.Now())
		if err != nil {
			t.Fatalf("user error: %v", err)
		}
		if out == engine.Committed || out == engine.Stashed {
			return
		}
	}
	t.Fatal("never committed")
}

func newApp(t *testing.T, workers int) (*App, *store.Store) {
	app := NewApp(50, 20, workers)
	st := store.New()
	app.Preload(st)
	return app, st
}

func TestStoreBidBothVariantsUpdateMetadata(t *testing.T) {
	for _, doppelOps := range []bool{false, true} {
		app, st := newApp(t, 1)
		e := occ.New(st, 1)
		bid := func(bidder, amt int64) engine.TxFunc {
			return func(tx engine.Tx) error {
				if doppelOps {
					return app.StoreBidDoppel(tx, 0, bidder, 7, amt, amt)
				}
				return app.StoreBidOriginal(tx, 0, bidder, 7, amt)
			}
		}
		commit(t, e, 0, bid(3, 100))
		commit(t, e, 0, bid(4, 300))
		commit(t, e, 0, bid(5, 200))
		commit(t, e, 0, func(tx engine.Tx) error {
			_, maxBid, numBids, err := app.ViewItem(tx, 7)
			if err != nil {
				return err
			}
			if maxBid != 300 {
				return fmt.Errorf("doppelOps=%v maxBid=%d", doppelOps, maxBid)
			}
			if numBids != 3 {
				return fmt.Errorf("doppelOps=%v numBids=%d", doppelOps, numBids)
			}
			return nil
		})
		if doppelOps {
			// The Doppel variant also maintains the winning bidder tuple
			// and the bid index.
			commit(t, e, 0, func(tx engine.Tx) error {
				tup, ok, err := tx.GetTuple(MaxBidderKey(7))
				if err != nil || !ok {
					return fmt.Errorf("maxBidder: %v %v", ok, err)
				}
				if string(tup.Data) != UserKey(4) {
					return fmt.Errorf("winner %q", tup.Data)
				}
				bids, err := app.ViewBidHistory(tx, 7)
				if err != nil {
					return err
				}
				if len(bids) != 3 || bids[0].Price != 300 {
					return fmt.Errorf("history %+v", bids)
				}
				return nil
			})
		}
	}
}

func TestStoreCommentUpdatesRating(t *testing.T) {
	app, st := newApp(t, 1)
	e := occ.New(st, 1)
	c := Comment{From: 1, To: 2, Item: 3, Rating: 5, Text: "great"}
	commit(t, e, 0, func(tx engine.Tx) error { return app.StoreCommentOriginal(tx, 0, c) })
	commit(t, e, 0, func(tx engine.Tx) error { return app.StoreCommentDoppel(tx, 0, c) })
	commit(t, e, 0, func(tx engine.Tx) error {
		_, rating, err := app.ViewUserInfo(tx, 2)
		if err != nil {
			return err
		}
		if rating != 10 {
			return fmt.Errorf("rating %d", rating)
		}
		return nil
	})
}

func TestStoreItemIndexesAndSearch(t *testing.T) {
	app, st := newApp(t, 1)
	e := occ.New(st, 1)
	it := Item{Seller: 1, Category: 4, Region: 9, Name: "lamp"}
	commit(t, e, 0, func(tx engine.Tx) error {
		_, err := app.StoreItem(tx, 0, it)
		return err
	})
	commit(t, e, 0, func(tx engine.Tx) error {
		items, err := app.SearchItemsByCategory(tx, 4)
		if err != nil {
			return err
		}
		if len(items) == 0 || items[0].Name != "lamp" {
			return fmt.Errorf("category search: %+v", items)
		}
		items, err = app.SearchItemsByRegion(tx, 9)
		if err != nil {
			return err
		}
		if len(items) == 0 {
			return fmt.Errorf("region search empty")
		}
		return nil
	})
}

func TestMiscTransactions(t *testing.T) {
	app, st := newApp(t, 1)
	e := occ.New(st, 1)
	commit(t, e, 0, func(tx engine.Tx) error { return app.RegisterUser(tx, 999, "bob") })
	commit(t, e, 0, func(tx engine.Tx) error { return app.StoreBuyNow(tx, 0, 1, 2, 1) })
	commit(t, e, 0, func(tx engine.Tx) error { return app.AboutMe(tx, 999) })
	commit(t, e, 0, func(tx engine.Tx) error { return app.BrowseCategories(tx) })
	commit(t, e, 0, func(tx engine.Tx) error { return app.BrowseRegions(tx) })
}

func TestFreshIDsUniqueAcrossWorkers(t *testing.T) {
	app := NewApp(10, 10, 4)
	seen := map[int64]bool{}
	for w := 0; w < 4; w++ {
		for i := 0; i < 100; i++ {
			id := app.fresh(app.nextBid, w)
			if seen[id] {
				t.Fatalf("duplicate fresh id %d", id)
			}
			seen[id] = true
		}
	}
}

func TestMixProportions(t *testing.T) {
	app, st := newApp(t, 1)
	e := occ.New(st, 1)
	mix := NewMixC(app, 1.0, true)
	r := rng.New(4)
	writes := 0
	const n = 4000
	for i := 0; i < n; i++ {
		fn, isWrite := mix.Next(0, r)
		if isWrite {
			writes++
		}
		commit(t, e, 0, fn)
	}
	frac := float64(writes) / n
	if frac < 0.48 || frac > 0.60 {
		t.Fatalf("RUBiS-C write fraction %.3f", frac)
	}
	b := NewMixB(app, false)
	writes = 0
	for i := 0; i < n; i++ {
		fn, isWrite := b.Next(0, r)
		if isWrite {
			writes++
		}
		commit(t, e, 0, fn)
	}
	frac = float64(writes) / n
	if frac < 0.04 || frac > 0.13 {
		t.Fatalf("RUBiS-B write fraction %.3f", frac)
	}
}

// TestBidConservationUnderDoppel drives concurrent RUBiS-C bidding
// through the real Doppel engine and checks numBids conservation and
// maxBid correctness after Close.
func TestBidConservationUnderDoppel(t *testing.T) {
	const workers = 4
	app := NewApp(100, 5, workers)
	st := store.New()
	app.Preload(st)
	cfg := core.DefaultConfig(workers)
	cfg.PhaseLength = 2 * time.Millisecond
	cfg.SplitMinConflicts = 2
	cfg.SplitFraction = 0.001
	db := core.Open(st, cfg)

	var wg, quota sync.WaitGroup
	var stop, maxSeen [workers]int64
	var bids [workers]int64
	var stopPolling sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		quota.Add(1)
		stopPolling.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 17)
			count := int64(0)
			for count < 3000 {
				item := int64(r.Intn(5))
				amt := int64(1 + r.Intn(1_000_000))
				ts := engine.Now()
				out, err := db.Attempt(w, func(tx engine.Tx) error {
					return app.StoreBidDoppel(tx, w, int64(r.Intn(100)), item, amt, ts)
				}, ts)
				if err != nil {
					t.Error(err)
					break
				}
				if out == engine.Committed || out == engine.Stashed {
					count++
					if amt > maxSeen[w] {
						maxSeen[w] = amt
					}
				}
			}
			bids[w] = count
			quota.Done()
			stopPolling.Done()
			for {
				select {
				case <-done:
					return
				default:
					db.Poll(w)
				}
			}
		}(w)
	}
	quota.Wait()
	close(done)
	wg.Wait()
	db.Close()
	_ = stop

	var total int64
	var maxBid int64
	for i := int64(0); i < 5; i++ {
		n, _ := st.Get(NumBidsKey(i)).Value().AsInt()
		total += n
		m, _ := st.Get(MaxBidKey(i)).Value().AsInt()
		if m > maxBid {
			maxBid = m
		}
	}
	var want int64
	var wantMax int64
	for w := 0; w < workers; w++ {
		want += bids[w]
		if maxSeen[w] > wantMax {
			wantMax = maxSeen[w]
		}
	}
	if total != want {
		t.Fatalf("numBids %d != committed bids %d", total, want)
	}
	if maxBid != wantMax {
		t.Fatalf("maxBid %d != max committed amount %d", maxBid, wantMax)
	}
}

// TestMixRunsUnder2PL exercises the lock-order discipline: the full mix
// must complete under 2PL without deadlocking.
func TestMixRunsUnder2PL(t *testing.T) {
	const workers = 4
	app := NewApp(100, 10, workers)
	st := store.New()
	app.Preload(st)
	e := twopl.New(st, workers)
	mix := NewMixB(app, false)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 3)
			for i := 0; i < 2000; i++ {
				fn, _ := mix.Next(w, r)
				if _, err := e.Attempt(w, fn, engine.Now()); err != nil {
					t.Errorf("2PL mix error: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
