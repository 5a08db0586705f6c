package atomiceng

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"doppel/internal/engine"
	"doppel/internal/store"
)

func commit(t *testing.T, e *Engine, w int, fn engine.TxFunc) {
	t.Helper()
	out, err := e.Attempt(w, fn, engine.Now())
	if err != nil || out != engine.Committed {
		t.Fatalf("attempt: %v %v", out, err)
	}
}

func TestBasicOps(t *testing.T) {
	e := New(store.New(), 1)
	commit(t, e, 0, func(tx engine.Tx) error {
		if err := tx.PutInt("a", 10); err != nil {
			return err
		}
		if err := tx.Add("a", 5); err != nil {
			return err
		}
		if err := tx.Max("a", 3); err != nil {
			return err
		}
		if err := tx.Min("a", 100); err != nil {
			return err
		}
		if err := tx.Mult("a", 2); err != nil {
			return err
		}
		n, err := tx.GetInt("a")
		if err != nil {
			return err
		}
		if n != 30 {
			return fmt.Errorf("got %d", n)
		}
		return nil
	})
	commit(t, e, 0, func(tx engine.Tx) error {
		if err := tx.PutBytes("b", []byte("z")); err != nil {
			return err
		}
		if b, _ := tx.GetBytes("b"); string(b) != "z" {
			return errors.New("bytes")
		}
		if err := tx.OPut("o", store.Order{A: 1}, []byte("o")); err != nil {
			return err
		}
		if _, ok, _ := tx.GetTuple("o"); !ok {
			return errors.New("tuple")
		}
		if err := tx.TopKInsert("t", 1, []byte("t"), 2); err != nil {
			return err
		}
		if es, _ := tx.GetTopK("t"); len(es) != 1 {
			return errors.New("topk")
		}
		if v, _ := tx.GetForUpdate("a"); v == nil {
			return errors.New("GetForUpdate")
		}
		if n, _ := tx.GetIntForUpdate("a"); n != 30 {
			return errors.New("GetIntForUpdate")
		}
		if tx.WorkerID() != 0 {
			return errors.New("worker")
		}
		return nil
	})
	if e.Name() != "atomic" || e.Workers() != 1 {
		t.Fatal("metadata")
	}
	e.Poll(0)
	e.Stop()
}

func TestUserErrorSurfaced(t *testing.T) {
	e := New(store.New(), 1)
	boom := errors.New("boom")
	out, err := e.Attempt(0, func(tx engine.Tx) error { return boom }, engine.Now())
	if out != engine.UserAbort || !errors.Is(err, boom) {
		t.Fatalf("%v %v", out, err)
	}
	if e.WorkerStats(0).Aborted.Load() != 1 {
		t.Fatal("abort not counted")
	}
}

func TestTypeErrorSurfaced(t *testing.T) {
	e := New(store.New(), 1)
	commit(t, e, 0, func(tx engine.Tx) error { return tx.PutBytes("s", []byte("b")) })
	out, err := e.Attempt(0, func(tx engine.Tx) error { return tx.Add("s", 1) }, engine.Now())
	if out != engine.UserAbort || err == nil {
		t.Fatalf("%v %v", out, err)
	}
}

func TestConcurrentIncrementsNoLostUpdates(t *testing.T) {
	// The whole point of the Atomic baseline: contended increments are
	// lock-free and never lose updates.
	e := New(store.New(), 8)
	e.Store().Preload("hot", store.IntValue(0))
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				commit(t, e, w, func(tx engine.Tx) error { return tx.Add("hot", 1) })
			}
		}(w)
	}
	wg.Wait()
	commit(t, e, 0, func(tx engine.Tx) error {
		n, err := tx.GetInt("hot")
		if err != nil {
			return err
		}
		if n != 8*perWorker {
			return fmt.Errorf("lost updates: %d", n)
		}
		return nil
	})
}

func TestConcurrentMaxConverges(t *testing.T) {
	e := New(store.New(), 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				commit(t, e, w, func(tx engine.Tx) error {
					return tx.Max("m", int64(w*1000+i))
				})
			}
		}(w)
	}
	wg.Wait()
	commit(t, e, 0, func(tx engine.Tx) error {
		n, err := tx.GetInt("m")
		if err != nil {
			return err
		}
		if n != 3999 {
			return fmt.Errorf("max = %d", n)
		}
		return nil
	})
}

func TestLatencyRecorded(t *testing.T) {
	e := New(store.New(), 1)
	commit(t, e, 0, func(tx engine.Tx) error { return tx.Add("k", 1) })
	commit(t, e, 0, func(tx engine.Tx) error { _, err := tx.GetInt("k"); return err })
	s := e.WorkerStats(0)
	if s.WriteLatency.Count() != 1 || s.ReadLatency.Count() != 1 {
		t.Fatal("latency counts")
	}
}
