package doppel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOptionsValidateMatrix exercises every option that demands a
// durability directory, alone and combined: each violation must match
// ErrRequiresRedoLog via errors.Is and name the offending option.
func TestOptionsValidateMatrix(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"CheckpointEvery", Options{CheckpointEvery: time.Second}},
		{"MaxSegmentBytes", Options{MaxSegmentBytes: 1 << 20}},
		{"SyncCommit", Options{SyncCommit: true}},
		{"ScrubEvery", Options{ScrubEvery: time.Minute}},
		{"WALFailStop", Options{WALFailStop: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opts.Validate()
			if !errors.Is(err, ErrRequiresRedoLog) {
				t.Fatalf("Validate() = %v, want ErrRequiresRedoLog", err)
			}
			if !strings.Contains(err.Error(), c.name) {
				t.Fatalf("Validate() = %q, does not name %s", err, c.name)
			}
			// The same combination with a RedoLog is consistent.
			withLog := c.opts
			withLog.RedoLog = "somewhere"
			if err := withLog.Validate(); err != nil {
				t.Fatalf("Validate() with RedoLog = %v", err)
			}
		})
	}
}

// TestOptionsValidateReportsEveryViolation sets every RedoLog-requiring
// option plus a negative worker count at once and requires all six
// violations in one error, not just the first.
func TestOptionsValidateReportsEveryViolation(t *testing.T) {
	opts := Options{
		Workers:         -2,
		CheckpointEvery: time.Second,
		MaxSegmentBytes: 1,
		SyncCommit:      true,
		ScrubEvery:      time.Minute,
		WALFailStop:     true,
	}
	err := opts.Validate()
	if !errors.Is(err, ErrRequiresRedoLog) {
		t.Fatalf("Validate() = %v, want ErrRequiresRedoLog", err)
	}
	for _, want := range []string{
		"CheckpointEvery", "MaxSegmentBytes", "SyncCommit",
		"ScrubEvery", "WALFailStop", "Workers",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Validate() = %q, missing violation %s", err, want)
		}
	}
}

func TestOptionsValidateAccepts(t *testing.T) {
	for _, opts := range []Options{
		{},
		{Workers: 8, PhaseLength: time.Millisecond},
		{RedoLog: "dir", CheckpointEvery: time.Second, MaxSegmentBytes: 1,
			SyncCommit: true, WALFailStop: true},
	} {
		if err := opts.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", opts, err)
		}
	}
}

// TestOpenErrRejectsInvalidOptions: the validation runs at open time
// too, so a misconfigured database is refused rather than built.
func TestOpenErrRejectsInvalidOptions(t *testing.T) {
	db, err := OpenErr(Options{SyncCommit: true})
	if db != nil {
		db.Close()
	}
	if !errors.Is(err, ErrRequiresRedoLog) {
		t.Fatalf("OpenErr = %v, want ErrRequiresRedoLog", err)
	}
}

// TestClosedDatabaseSentinel drives every post-Close entry point and
// requires each failure to match ErrClosed via errors.Is.
func TestClosedDatabaseSentinel(t *testing.T) {
	db, err := OpenErr(Options{Workers: 1, RedoLog: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(func(tx Tx) error { return tx.Add("k", 1) }); err != nil {
		t.Fatal(err)
	}
	db.Close()

	noop := func(tx Tx) error { return nil }
	if err := db.Exec(noop); !errors.Is(err, ErrClosed) {
		t.Errorf("Exec after Close = %v, want ErrClosed", err)
	}
	if err := db.ExecContext(context.Background(), noop); !errors.Is(err, ErrClosed) {
		t.Errorf("ExecContext after Close = %v, want ErrClosed", err)
	}
	got := make(chan error, 1)
	db.ExecAsync(noop, func(err error) { got <- err })
	if err := <-got; !errors.Is(err, ErrClosed) {
		t.Errorf("ExecAsync after Close = %v, want ErrClosed", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint after Close = %v, want ErrClosed", err)
	}
}

func TestCheckpointWithoutRedoLog(t *testing.T) {
	db := Open(Options{Workers: 1})
	defer db.Close()
	if err := db.Checkpoint(); !errors.Is(err, ErrRequiresRedoLog) {
		t.Fatalf("Checkpoint = %v, want ErrRequiresRedoLog", err)
	}
}

// TestOpenExistingLogDir: Open on a directory that already holds a log
// must refuse with ErrLogExists; Recover on it must succeed.
func TestOpenExistingLogDir(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenErr(Options{Workers: 1, RedoLog: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(func(tx Tx) error { return tx.PutInt("survivor", 7) }); err != nil {
		t.Fatal(err)
	}
	db.Close()

	if _, err := OpenErr(Options{Workers: 1, RedoLog: dir}); !errors.Is(err, ErrLogExists) {
		t.Fatalf("OpenErr on existing log = %v, want ErrLogExists", err)
	}
	db2, err := Recover(dir, Options{Workers: 1, RedoLog: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	err = db2.Exec(func(tx Tx) error {
		n, err := tx.GetInt("survivor")
		if err != nil {
			return err
		}
		if n != 7 {
			t.Errorf("survivor = %d, want 7", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecContextCancelWhileQueued blocks the only worker, queues a
// cancellable transaction behind it, and cancels: ExecContext must
// return the context's error without waiting for the worker.
func TestExecContextCancelWhileQueued(t *testing.T) {
	db := Open(Options{Workers: 1})
	defer db.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	hold := make(chan error, 1)
	db.ExecAsync(func(tx Tx) error {
		close(started)
		<-release
		return nil
	}, func(err error) { hold <- err })
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- db.ExecContext(ctx, func(tx Tx) error { return nil })
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ExecContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ExecContext did not return after cancellation")
	}
	close(release)
	if err := <-hold; err != nil {
		t.Fatal(err)
	}
}

// TestExecContextCancelledRequestNotReused: ExecContext's requests are
// pooled, but one whose caller returned on cancellation is still in the
// worker's queue and must never be handed out again. The worker reaches
// it while 1,000 later ExecContext calls, cancellable or not, run
// behind it: the cancelled body never runs, and every later body runs
// exactly once and its caller gets that body's own outcome.
func TestExecContextCancelledRequestNotReused(t *testing.T) {
	db := Open(Options{Workers: 1})
	defer db.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	db.ExecAsync(func(tx Tx) error {
		close(started)
		<-release
		return nil
	}, func(error) {})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	var cancelledRuns atomic.Int32
	errc := make(chan error, 1)
	go func() {
		errc <- db.ExecContext(ctx, func(tx Tx) error {
			cancelledRuns.Add(1)
			return tx.PutInt("cancelled", 1)
		})
	}()
	for len(db.queues[0]) == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ExecContext = %v, want context.Canceled", err)
	}
	close(release)

	live, stop := context.WithCancel(context.Background())
	defer stop()
	const n = 1000
	var runs [n]atomic.Int32
	for i := 0; i < n; i++ {
		var want error
		if i%3 == 0 {
			want = fmt.Errorf("body %d", i)
		}
		c := context.Background()
		if i%2 == 1 {
			c = live
		}
		got := db.ExecContext(c, func(tx Tx) error {
			runs[i].Add(1)
			if want != nil {
				return want
			}
			return tx.Add("sum", 1)
		})
		if got != want {
			t.Fatalf("call %d returned %v, want %v", i, got, want)
		}
	}
	for i := range runs {
		if r := runs[i].Load(); r != 1 {
			t.Fatalf("body %d ran %d times, want 1", i, r)
		}
	}
	if r := cancelledRuns.Load(); r != 0 {
		t.Fatalf("the cancelled body ran %d times, want 0", r)
	}
	err := db.Exec(func(tx Tx) error {
		if v, err := tx.Get("cancelled"); err != nil || v != nil {
			return fmt.Errorf("cancelled write visible: %v, %v", v, err)
		}
		sum, err := tx.GetInt("sum")
		if err == nil && sum != n-(n+2)/3 {
			err = fmt.Errorf("sum = %d, want %d", sum, n-(n+2)/3)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExecContextPreCancelled: a context cancelled before the call may
// race the queue send, but the return must still be the context's error
// while a worker is busy.
func TestExecContextPreCancelled(t *testing.T) {
	db := Open(Options{Workers: 1})
	defer db.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	db.ExecAsync(func(tx Tx) error {
		close(started)
		<-release
		return nil
	}, func(error) {})
	<-started
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.ExecContext(ctx, func(tx Tx) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecContext = %v, want context.Canceled", err)
	}
}
