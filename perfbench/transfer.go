package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"doppel"
	"doppel/internal/core"
	"doppel/internal/rng"
	"doppel/internal/store"
)

// transferDurable moves one unit between accounts of a two-shard
// doppel.Cluster whose shards each keep a redo log and checkpoint every
// second. One transfer in ten crosses shards, and read-only audits of
// two accounts on different shards arrive on an open-loop schedule. The
// router's two-phase commit, commit fences, group commit and checkpoints
// do most of the work.
//
// Commits are acknowledged from memory (no SyncCommit): the log lives in
// the checkout, on a disk whose fsync latency varies severalfold from
// one moment to the next, and waiting on it would measure the disk.
type transferDurable struct {
	accounts []string
	byShard  [2][]int32 // account indices owned by each shard

	cl       *doppel.Cluster
	tmpl     string // per-shard log directory template
	balances []int64
	recoverT time.Duration
	ckpt     [2]doppel.CheckpointStats
}

const (
	initialBalance = 100
	crossEvery     = 10 // one transfer in crossEvery spans both shards
	transferWindow = 8
	auditRate      = 1000 // audits per second
)

var (
	errInsufficient = errors.New("insufficient balance")
	errRecovery     = errors.New("recovered state differs from the final in-memory state")
)

func newTransfer(cfg config) *transferDurable {
	t := &transferDurable{accounts: keyTable('a', cfg.keys)}
	var part doppel.HashPartitioner
	for i, k := range t.accounts {
		s := part.Shard(k, 2)
		t.byShard[s] = append(t.byShard[s], int32(i))
	}
	return t
}

func (t *transferDurable) params() (int, float64) { return transferWindow, auditRate }

func (t *transferDurable) options(tmpl string) doppel.ClusterOptions {
	return doppel.ClusterOptions{
		Shards: 2,
		DB: doppel.Options{
			Workers:         1,
			PhaseLength:     20 * time.Millisecond,
			RedoLog:         tmpl,
			CheckpointEvery: time.Second,
		},
	}
}

// open starts the cluster, preloads every account into its shard's
// store and checkpoints once, which makes the preload durable.
func (t *transferDurable) open(dir string) error {
	t.tmpl = filepath.Join(dir, "shard-%d")
	cl, err := doppel.OpenCluster(t.options(t.tmpl))
	if err != nil {
		return err
	}
	t.cl = cl
	v := store.IntValue(initialBalance)
	for s, idx := range t.byShard {
		st := cl.DB(s).Internal().Store()
		for _, i := range idx {
			st.Preload(t.accounts[i], v)
		}
	}
	if err := cl.Checkpoint(); err != nil {
		cl.Close()
		return fmt.Errorf("initial checkpoint: %w", err)
	}
	return nil
}

func (t *transferDurable) submitter(g *gen) submitter {
	cl := t.cl
	return func(s *slot) { cl.ExecAsync(s.fn, s.done) }
}

func (t *transferDurable) dbs() []*doppel.DB { return []*doppel.DB{t.cl.DB(0), t.cl.DB(1)} }

func (t *transferDurable) logDirs() []string {
	return []string{fmt.Sprintf(t.tmpl, 0), fmt.Sprintf(t.tmpl, 1)}
}

func (t *transferDurable) router() *doppel.Cluster { return t.cl }

func (t *transferDurable) closedOp(s *slot, r *rng.Rand) {
	s.kind = opWrite
	from := r.Intn(2)
	to := from
	s.cross = r.Intn(crossEvery) == 0
	if s.cross {
		to = 1 - from
	}
	s.a = t.byShard[from][r.Intn(len(t.byShard[from]))]
	s.b = t.byShard[to][r.Intn(len(t.byShard[to]))]
	for s.b == s.a {
		s.b = t.byShard[to][r.Intn(len(t.byShard[to]))]
	}
}

func (t *transferDurable) openOp(s *slot, r *rng.Rand) {
	s.kind = opRead
	s.cross = true
	s.a = t.byShard[0][r.Intn(len(t.byShard[0]))]
	s.b = t.byShard[1][r.Intn(len(t.byShard[1]))]
}

func (t *transferDurable) body(tx doppel.Tx, s *slot) error {
	from, to := t.accounts[s.a], t.accounts[s.b]
	x, err := tx.GetInt(from)
	if err != nil {
		return err
	}
	y, err := tx.GetInt(to)
	if err != nil {
		return err
	}
	if s.kind == opRead {
		s.val = min(x, y)
		return nil
	}
	if x < 1 {
		return errInsufficient
	}
	if err := tx.PutInt(from, x-1); err != nil {
		return err
	}
	return tx.PutInt(to, y+1)
}

func (t *transferDurable) checkRead(s *slot) error {
	if s.val < 0 {
		return fmt.Errorf("audit read a negative balance %d", s.val)
	}
	return nil
}

func (t *transferDurable) check(w window) []error {
	st := t.cl.Stats()
	for i := range t.ckpt {
		t.ckpt[i] = t.cl.DB(i).CheckpointStats()
	}
	if n := st.Router.CrossShardApplyLost; n != 0 {
		return []error{fmt.Errorf("CrossShardApplyLost = %d", n)}
	}
	return nil
}

func (t *transferDurable) close() { t.cl.Close() }

// post checks conservation on the final in-memory balances, then
// recovers the cluster from its logs and checkpoints and requires the
// recovered balances to match exactly.
func (t *transferDurable) post(g *gen) []error {
	t.balances = readBalances(t.cl, t.accounts)
	t.cl = nil
	var sum int64
	for _, b := range t.balances {
		sum += b
	}
	var errs []error
	if want := int64(len(t.accounts)) * initialBalance; sum != want {
		errs = append(errs, fmt.Errorf("%w: balances sum to %d, want %d", errConservation, sum, want))
	}
	freeMemory()
	opts := t.options(t.tmpl)
	opts.DB.CheckpointEvery = 0
	t0 := time.Now()
	rc, err := doppel.RecoverCluster(t.tmpl, opts)
	t.recoverT = time.Since(t0)
	if err != nil {
		return append(errs, fmt.Errorf("recover: %w", err))
	}
	got := readBalances(rc, t.accounts)
	if err := bounded("recovered cluster close", closeLimit, rc.Close); err != nil {
		return append(errs, err)
	}
	bad := 0
	for i := range got {
		if got[i] != t.balances[i] {
			if bad == 0 {
				errs = append(errs, fmt.Errorf("%w: account %s recovered %d, final in-memory balance %d",
					errRecovery, t.accounts[i], got[i], t.balances[i]))
			}
			bad++
		}
	}
	if bad > 1 {
		errs = append(errs, fmt.Errorf("%w: %d accounts differ", errRecovery, bad))
	}
	return errs
}

// readBalances reads every account from the shard stores; the caller
// guarantees nothing is executing.
func readBalances(cl *doppel.Cluster, accounts []string) []int64 {
	out := make([]int64, len(accounts))
	for i, k := range accounts {
		out[i], _ = recordInt(cl.DB(cl.ShardOf(k)).Internal().Store(), k)
	}
	return out
}

func (t *transferDurable) layers(m map[string]float64, _ spanStats) {
	m["wal.recover_ms"] = float64(t.recoverT) / 1e6
	var mb float64
	for _, c := range t.ckpt {
		m["checkpoint.barrier_us"] = max(m["checkpoint.barrier_us"], float64(c.LastBarrier)/1e3)
		m["checkpoint.walk_ms"] = max(m["checkpoint.walk_ms"], float64(c.LastWalk)/1e6)
		mb += float64(c.LastBytes) / (1 << 20)
	}
	m["checkpoint.snapshot_mb"] = mb
}

// directDB holds every account in one two-worker core.DB: the direct
// drive measures the bodies without the router, the log or the queues.
func (t *transferDurable) directDB() *core.DB {
	st := store.New()
	preloadInts(st, t.accounts, initialBalance)
	return core.Open(st, core.DefaultConfig(2))
}
