package twopl

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"doppel/internal/engine"
	"doppel/internal/rng"
	"doppel/internal/store"
)

func commit(t *testing.T, e *Engine, w int, fn engine.TxFunc) {
	t.Helper()
	out, err := e.Attempt(w, fn, engine.Now())
	if err != nil {
		t.Fatalf("attempt error: %v", err)
	}
	if out != engine.Committed {
		t.Fatalf("outcome %v", out)
	}
}

func TestBasicOps(t *testing.T) {
	e := New(store.New(), 1)
	commit(t, e, 0, func(tx engine.Tx) error {
		if err := tx.PutInt("a", 1); err != nil {
			return err
		}
		if err := tx.Add("a", 2); err != nil {
			return err
		}
		if err := tx.Max("b", 9); err != nil {
			return err
		}
		if err := tx.Min("c", -4); err != nil {
			return err
		}
		if err := tx.Mult("d", 6); err != nil {
			return err
		}
		if err := tx.PutBytes("e", []byte("x")); err != nil {
			return err
		}
		if err := tx.OPut("f", store.Order{A: 2}, []byte("f")); err != nil {
			return err
		}
		return tx.TopKInsert("g", 1, []byte("g"), 2)
	})
	commit(t, e, 0, func(tx engine.Tx) error {
		checks := []struct {
			key  string
			want int64
		}{{"a", 3}, {"b", 9}, {"c", -4}, {"d", 6}}
		for _, c := range checks {
			if n, err := tx.GetInt(c.key); err != nil || n != c.want {
				return fmt.Errorf("%s = %d (%v), want %d", c.key, n, err, c.want)
			}
		}
		if b, _ := tx.GetBytes("e"); string(b) != "x" {
			return fmt.Errorf("bytes %q", b)
		}
		if tp, ok, _ := tx.GetTuple("f"); !ok || tp.Order.A != 2 {
			return fmt.Errorf("tuple %v %v", tp, ok)
		}
		if es, _ := tx.GetTopK("g"); len(es) != 1 {
			return fmt.Errorf("topk %v", es)
		}
		if v, _ := tx.Get("a"); v == nil {
			return errors.New("Get nil")
		}
		if tx.WorkerID() != 0 {
			return errors.New("worker id")
		}
		return nil
	})
	if e.Name() != "2pl" || e.Workers() != 1 {
		t.Fatal("metadata")
	}
	e.Poll(0)
	e.Stop()
}

func TestReadYourWrites(t *testing.T) {
	e := New(store.New(), 1)
	commit(t, e, 0, func(tx engine.Tx) error {
		if err := tx.Add("k", 7); err != nil {
			return err
		}
		n, err := tx.GetInt("k") // already write-locked; must see buffered add
		if err != nil {
			return err
		}
		if n != 7 {
			return fmt.Errorf("read-your-writes got %d", n)
		}
		return nil
	})
}

func TestLockUpgradeRejected(t *testing.T) {
	e := New(store.New(), 1)
	out, err := e.Attempt(0, func(tx engine.Tx) error {
		if _, err := tx.GetInt("k"); err != nil {
			return err
		}
		return tx.Add("k", 1) // read→write upgrade
	}, engine.Now())
	if out != engine.UserAbort || !errors.Is(err, engine.ErrUnsupported) {
		t.Fatalf("out=%v err=%v", out, err)
	}
	// GetForUpdate avoids the problem.
	commit(t, e, 0, func(tx engine.Tx) error {
		n, err := tx.GetIntForUpdate("k")
		if err != nil {
			return err
		}
		return tx.PutInt("k", n+1)
	})
	commit(t, e, 0, func(tx engine.Tx) error {
		if n, _ := tx.GetInt("k"); n != 1 {
			return fmt.Errorf("got %d", n)
		}
		return nil
	})
}

func TestGetForUpdateValueForm(t *testing.T) {
	e := New(store.New(), 1)
	commit(t, e, 0, func(tx engine.Tx) error {
		v, err := tx.GetForUpdate("gv")
		if err != nil || v != nil {
			return fmt.Errorf("absent GetForUpdate: %v %v", v, err)
		}
		return tx.PutInt("gv", 5)
	})
}

func TestUserAbortReleasesLocksNoEffects(t *testing.T) {
	e := New(store.New(), 2)
	boom := errors.New("boom")
	out, err := e.Attempt(0, func(tx engine.Tx) error {
		_ = tx.PutInt("x", 99)
		return boom
	}, engine.Now())
	if out != engine.UserAbort || !errors.Is(err, boom) {
		t.Fatalf("out=%v err=%v", out, err)
	}
	// Locks must be free and the write must not have applied.
	commit(t, e, 1, func(tx engine.Tx) error {
		if n, _ := tx.GetInt("x"); n != 0 {
			return fmt.Errorf("leak: %d", n)
		}
		return nil
	})
}

func TestTypeErrorAtCommitNoPartialEffects(t *testing.T) {
	e := New(store.New(), 1)
	commit(t, e, 0, func(tx engine.Tx) error { return tx.PutBytes("s", []byte("b")) })
	out, err := e.Attempt(0, func(tx engine.Tx) error {
		if err := tx.PutInt("y", 1); err != nil {
			return err
		}
		return tx.Add("s", 1) // type error surfaces at commit
	}, engine.Now())
	if out != engine.UserAbort || err == nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
	commit(t, e, 0, func(tx engine.Tx) error {
		if n, _ := tx.GetInt("y"); n != 0 {
			return fmt.Errorf("partial commit: %d", n)
		}
		return nil
	})
}

func TestNeverAbortsUnderContention(t *testing.T) {
	e := New(store.New(), 4)
	e.Store().Preload("ctr", store.IntValue(0))
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				out, err := e.Attempt(w, func(tx engine.Tx) error {
					return tx.Add("ctr", 1)
				}, engine.Now())
				if err != nil || out != engine.Committed {
					t.Errorf("2PL should never abort: %v %v", out, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for w := 0; w < 4; w++ {
		if e.WorkerStats(w).Aborted.Load() != 0 {
			t.Fatal("2PL recorded aborts")
		}
		total += e.WorkerStats(w).Committed.Load()
	}
	if total != 4*perWorker {
		t.Fatalf("commit count %d", total)
	}
	commit(t, e, 0, func(tx engine.Tx) error {
		n, err := tx.GetInt("ctr")
		if err != nil {
			return err
		}
		if n != 4*perWorker {
			return fmt.Errorf("lost updates: %d", n)
		}
		return nil
	})
}

func TestTransferInvariantOrderedAccess(t *testing.T) {
	// Transfers always lock the lower-numbered account first, so no
	// deadlock; balances must be conserved.
	const accounts = 8
	const workers = 4
	e := New(store.New(), workers)
	for i := 0; i < accounts; i++ {
		e.Store().Preload(fmt.Sprintf("a%d", i), store.IntValue(100))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 5)
			for i := 0; i < 1500; i++ {
				i1, i2 := r.Intn(accounts), r.Intn(accounts)
				if i1 == i2 {
					continue
				}
				if i1 > i2 {
					i1, i2 = i2, i1
				}
				lo, hi := fmt.Sprintf("a%d", i1), fmt.Sprintf("a%d", i2)
				out, err := e.Attempt(w, func(tx engine.Tx) error {
					b1, err := tx.GetIntForUpdate(lo)
					if err != nil {
						return err
					}
					b2, err := tx.GetIntForUpdate(hi)
					if err != nil {
						return err
					}
					if err := tx.PutInt(lo, b1-1); err != nil {
						return err
					}
					return tx.PutInt(hi, b2+1)
				}, engine.Now())
				if err != nil || out != engine.Committed {
					t.Errorf("transfer failed: %v %v", out, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	commit(t, e, 0, func(tx engine.Tx) error {
		var sum int64
		for i := 0; i < accounts; i++ {
			n, err := tx.GetInt(fmt.Sprintf("a%d", i))
			if err != nil {
				return err
			}
			sum += n
		}
		if sum != accounts*100 {
			return fmt.Errorf("sum %d", sum)
		}
		return nil
	})
}

func TestConcurrentReadersShareLock(t *testing.T) {
	e := New(store.New(), 2)
	e.Store().Preload("r", store.IntValue(7))
	// Two simultaneous read transactions must both proceed (RLock).
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = e.Attempt(1, func(tx engine.Tx) error {
			if _, err := tx.GetInt("r"); err != nil {
				return err
			}
			close(started)
			<-release
			return nil
		}, engine.Now())
	}()
	<-started
	done := make(chan struct{})
	go func() {
		commit(t, e, 0, func(tx engine.Tx) error {
			_, err := tx.GetInt("r")
			return err
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent reader blocked")
	}
	close(release)
}

func TestLatencyStatsRecorded(t *testing.T) {
	e := New(store.New(), 1)
	commit(t, e, 0, func(tx engine.Tx) error { return tx.PutInt("k", 1) })
	commit(t, e, 0, func(tx engine.Tx) error { _, err := tx.GetInt("k"); return err })
	s := e.WorkerStats(0)
	if s.WriteLatency.Count() != 1 || s.ReadLatency.Count() != 1 {
		t.Fatalf("latency counts %d/%d", s.WriteLatency.Count(), s.ReadLatency.Count())
	}
}
