// Package bench is the measurement harness: it drives the real engines
// with workload generators under the paper's §8.1 methodology (each
// worker generates transactions as if it were a client; aborted
// transactions are saved and retried later with exponential backoff),
// and it hosts the per-table/per-figure experiment drivers that
// regenerate the paper's evaluation on the Doppel engine and its OCC,
// 2PL and atomic baselines.
package bench

import (
	"container/heap"
	"runtime"
	"sync"
	"time"

	"doppel/internal/engine"
	"doppel/internal/metrics"
	"doppel/internal/rng"
	"doppel/internal/workload"
)

// Options configures a real-engine load run.
type Options struct {
	Duration time.Duration
	Seed     uint64
}

// Result reports one real-engine load run.
type Result struct {
	Stats      *metrics.TxnStats
	Elapsed    time.Duration
	Throughput float64 // committed transactions per second
}

// retryEnt is an aborted transaction waiting out its backoff.
type retryEnt struct {
	fn      engine.TxFunc
	submit  int64
	due     int64
	attempt int
}

type retryHeap []retryEnt

func (h retryHeap) Len() int           { return len(h) }
func (h retryHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h retryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x any)        { *h = append(*h, x.(retryEnt)) }
func (h *retryHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h retryHeap) peekDue() int64     { return h[0].due }

// RunLoad drives every worker of e with transactions from gen for
// opt.Duration, then merges the workers' statistics. Workers keep
// participating in phase transitions until all of them finish, which the
// Doppel engine requires.
func RunLoad(e engine.Engine, gen workload.Generator, opt Options) Result {
	if opt.Duration <= 0 {
		opt.Duration = time.Second
	}
	workers := e.Workers()
	var wg sync.WaitGroup
	var quota sync.WaitGroup
	stopPolling := make(chan struct{})
	start := time.Now()
	deadline := start.Add(opt.Duration)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		quota.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(opt.Seed + uint64(w)*104729 + 11)
			var retries retryHeap
			for time.Now().Before(deadline) {
				now := engine.Now()
				var fn engine.TxFunc
				var submit int64
				attempt := 0
				fromRetry := false
				if len(retries) > 0 && retries.peekDue() <= now {
					ent := heap.Pop(&retries).(retryEnt)
					fn, submit, attempt, fromRetry = ent.fn, ent.submit, ent.attempt, true
				} else {
					fn, _ = gen.Next(w, r)
					submit = now
				}
				out, _ := e.Attempt(w, fn, submit)
				switch out {
				case engine.Aborted:
					backoff := int64(r.ExpBackoff(2000, 2_000_000, attempt))
					heap.Push(&retries, retryEnt{fn, submit, now + backoff, attempt + 1})
				case engine.Paused:
					if fromRetry {
						heap.Push(&retries, retryEnt{fn, submit, now, attempt})
					}
					e.Poll(w)
				}
				// Committed, Stashed and UserAbort need no harness action
				// (the engine retries stashes itself).
			}
			quota.Done()
			for {
				select {
				case <-stopPolling:
					return
				default:
					e.Poll(w)
					// Yield so that on one CPU the workers still
					// inside their quota get to run.
					runtime.Gosched()
				}
			}
		}(w)
	}
	quota.Wait()
	close(stopPolling)
	wg.Wait()
	elapsed := time.Since(start)

	agg := metrics.NewTxnStats()
	for w := 0; w < workers; w++ {
		agg.Merge(e.WorkerStats(w))
	}
	return Result{
		Stats:      agg,
		Elapsed:    elapsed,
		Throughput: agg.Throughput(elapsed.Nanoseconds()),
	}
}
