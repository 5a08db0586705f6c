package doppel

import (
	"fmt"
	"testing"
)

// TestExecAsyncAllocs asserts that DB.ExecAsync and DB.Exec add no
// allocation of their own to the commit path: a read-only body, whose
// commit allocates nothing in the engine (internal/core/alloc_test.go),
// costs zero heap objects per transaction once the request pool is
// warm.
func TestExecAsyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	db := Open(Options{Workers: 1})
	defer db.Close()
	if err := db.Exec(func(tx Tx) error { return tx.PutInt("k", 1) }); err != nil {
		t.Fatal(err)
	}
	read := func(tx Tx) error { _, err := tx.GetInt("k"); return err }
	results := make(chan error, 1)
	done := func(err error) { results <- err }
	paths := map[string]func() error{
		"ExecAsync": func() error { db.ExecAsync(read, done); return <-results },
		"Exec":      func() error { return db.Exec(read) },
	}
	for name, submit := range paths {
		run := func() {
			if err := submit(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1000; i++ {
			run()
		}
		if n := testing.AllocsPerRun(1000, run); n > 0 {
			t.Errorf("%s of a read-only body allocates %.2f objects/op, want 0", name, n)
		}
	}
}

// TestCrossShardAllocs: a cross-shard transfer on a two-shard cluster
// with one worker per shard — the routed attempt, the reroute, the
// gather reads, prepare and the apply fan-out — allocates no more than
// the two IntValues it writes plus one, through Cluster.ExecAsync and
// Cluster.Exec alike. The routing frame, the 2PC frame and the shard
// requests are all pooled.
func TestCrossShardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	cl, err := OpenCluster(ClusterOptions{Shards: 2, DB: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var keys [2]string
	for i := 0; keys[0] == "" || keys[1] == ""; i++ {
		k := fmt.Sprintf("acct-%d", i)
		if s := cl.ShardOf(k); keys[s] == "" {
			keys[s] = k
		}
	}
	for _, k := range keys {
		if err := cl.Exec(func(tx Tx) error { return tx.PutInt(k, 1<<40) }); err != nil {
			t.Fatal(err)
		}
	}
	transfer := func(tx Tx) error {
		x, err := tx.GetInt(keys[0])
		if err != nil {
			return err
		}
		y, err := tx.GetInt(keys[1])
		if err != nil {
			return err
		}
		if err := tx.PutInt(keys[0], x-1); err != nil {
			return err
		}
		return tx.PutInt(keys[1], y+1)
	}
	results := make(chan error, 1)
	done := func(err error) { results <- err }
	paths := map[string]func() error{
		"ExecAsync": func() error { cl.ExecAsync(transfer, done); return <-results },
		"Exec":      func() error { return cl.Exec(transfer) },
	}
	for name, submit := range paths {
		run := func() {
			if err := submit(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1000; i++ {
			run()
		}
		if n := testing.AllocsPerRun(1000, run); n > 3 {
			t.Errorf("cross-shard Cluster.%s allocates %.2f objects/op, want <= 3", name, n)
		}
	}
	if st := cl.Stats().Router; st.CrossShard < 4000 {
		t.Fatalf("router stats %+v: the transfers did not run through 2PC", st)
	}
}
