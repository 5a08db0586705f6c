package main

import (
	"fmt"
	"time"

	"doppel"
	"doppel/internal/core"
	"doppel/internal/engine"
	"doppel/internal/rng"
)

// directResult is the direct drive's throughput and CPU cost.
type directResult struct {
	tps, cpuUs float64
}

// directDrive runs the workload's generated bodies straight into a bare
// core.DB's Attempt and Poll, with no doppel.DB queue, router or server:
// one goroutine plays both workers in turn. Open-loop operations keep
// the share of acknowledged transactions they had in the measured
// window. Each open-loop body gets its own slot, because a stashed body
// re-executes later and must still see its own inputs.
func directDrive(sys system, cfg config, g *gen, base window) (directResult, error) {
	db := sys.directDB()
	every := 0
	if reads := len(base.rec.reads); g.openEvery > 0 && reads > 0 {
		every = max(1, int(base.rec.acked)/reads)
	}
	r := rng.New(cfg.seed ^ 0x646972)
	closed := &slot{}
	closedFn := func(tx doppel.Tx) error { return sys.body(tx, closed) }
	d := dur(min(2, cfg.seconds/2))
	t0, cpu0 := now(), cpuTime()
	end := t0 + int64(d)
	n := 0
	for ; n&63 != 0 || now() < end; n++ {
		w := n & 1
		fn := closedFn
		if every > 0 && n%every == 0 {
			s := &slot{}
			sys.openOp(s, r)
			fn = func(tx doppel.Tx) error { return sys.body(tx, s) }
		} else {
			sys.closedOp(closed, r)
		}
		if err := attempt(db, w, fn); err != nil {
			db.Close()
			return directResult{}, err
		}
		if n&15 == 15 {
			db.Poll(0)
			db.Poll(1)
		}
	}
	// Stashed bodies replay at the next joined phase; wait for them so
	// their cost is counted.
	err := bounded("direct drive stash drain", drainLimit, func() {
		for db.StashLen(0)+db.StashLen(1) > 0 {
			db.Poll(0)
			db.Poll(1)
			time.Sleep(20 * time.Microsecond)
		}
	})
	if err != nil {
		return directResult{}, err // a worker may still be stuck; the run fails without closing
	}
	t1, cpu1 := now(), cpuTime()
	db.Close()
	return directResult{
		tps:   float64(n) / (float64(t1-t0) / 1e9),
		cpuUs: float64(cpu1-cpu0) / 1e3 / float64(n),
	}, nil
}

// attempt executes fn on worker w until the engine commits or stashes it.
func attempt(db *core.DB, w int, fn doppel.TxFunc) error {
	for {
		out, err := db.Attempt(w, fn, now())
		switch out {
		case engine.Committed, engine.Stashed:
			return nil
		case engine.UserAbort:
			return fmt.Errorf("direct drive: %w", err)
		default: // Aborted or Paused: let the phase transition finish
			db.Poll(0)
			db.Poll(1)
		}
	}
}
