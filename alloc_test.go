package doppel

import "testing"

// TestExecAsyncAllocs asserts that DB.ExecAsync adds no allocation of
// its own to the commit path: a read-only body, whose commit allocates
// nothing in the engine (internal/core/alloc_test.go), costs zero heap
// objects per transaction once the request pool is warm.
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
	run := func() {
		db.ExecAsync(read, done)
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		run()
	}
	if n := testing.AllocsPerRun(1000, run); n > 0 {
		t.Errorf("ExecAsync of a read-only body allocates %.2f objects/op, want 0", n)
	}
}
