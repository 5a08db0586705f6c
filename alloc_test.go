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

// TestCrossShardAllocs: a cross-shard transaction on a two-shard
// cluster with one worker per shard — the routed attempt, the reroute,
// the gather reads, prepare and the apply fan-out — allocates no more
// than the two values it writes plus one, through Cluster.ExecAsync and
// Cluster.Exec alike. The routing frame, the 2PC frame and the shard
// requests are all pooled. Splittable operations are type-checked at
// gather without building a value, and PutInt and PutBytes build their
// values only at commit, so a cross-shard Add+Add or a pair of blind
// puts allocates only its two written values, although its routed
// attempt ran the home-shard write before the reroute.
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
	addAdd := func(tx Tx) error {
		if err := tx.Add(keys[0], -1); err != nil {
			return err
		}
		return tx.Add(keys[1], 1)
	}
	blindPuts := func(tx Tx) error {
		if err := tx.PutInt(keys[0], 1); err != nil {
			return err
		}
		return tx.PutInt(keys[1], 2)
	}
	val := []byte("v")
	blindBytes := func(tx Tx) error {
		if err := tx.PutBytes(keys[0], val); err != nil {
			return err
		}
		return tx.PutBytes(keys[1], val)
	}
	bodies := []struct {
		name  string
		fn    TxFunc
		bound float64
	}{
		{"transfer", transfer, 3},
		{"Add+Add", addAdd, 2},
		{"blind PutInt+PutInt", blindPuts, 2},
		{"blind PutBytes+PutBytes", blindBytes, 2},
	}
	results := make(chan error, 1)
	done := func(err error) { results <- err }
	for _, b := range bodies {
		paths := map[string]func() error{
			"ExecAsync": func() error { cl.ExecAsync(b.fn, done); return <-results },
			"Exec":      func() error { return cl.Exec(b.fn) },
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
			n := testing.AllocsPerRun(1000, run)
			t.Logf("cross-shard %s through Cluster.%s: %.2f objects/op", b.name, name, n)
			if n > b.bound {
				t.Errorf("cross-shard %s through Cluster.%s allocates %.2f objects/op, want <= %.0f", b.name, name, n, b.bound)
			}
		}
	}
	if st := cl.Stats().Router; st.CrossShard < 16000 {
		t.Fatalf("router stats %+v: the transactions did not run through 2PC", st)
	}
}
