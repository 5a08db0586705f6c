package wal

// Group-commit pacing. With the cadence set to an hour the committer
// never syncs on its own within a test, so every sync below is a
// demanded one — a WaitDurable caller, Rotate, Close or the byte cap —
// and can be counted exactly. A broken trigger shows up as a hang,
// which within() turns into a failure.

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fileCounts tallies what the logger did to its segment files.
type fileCounts struct {
	writes, syncs atomic.Int64
	written       atomic.Int64 // bytes handed to Write
	synced        atomic.Int64 // bytes written before the latest Sync
	failWrites    atomic.Bool  // fail every Write from now on
}

// countFile is a segment file that reports to a fileCounts.
type countFile struct {
	f *os.File
	c *fileCounts
}

var errInjectedWrite = errors.New("wal: injected write failure")

func (cf *countFile) Write(p []byte) (int, error) {
	if cf.c.failWrites.Load() {
		return 0, errInjectedWrite
	}
	n, err := cf.f.Write(p)
	cf.c.writes.Add(1)
	cf.c.written.Add(int64(n))
	return n, err
}

func (cf *countFile) Sync() error {
	cf.c.syncs.Add(1)
	err := cf.f.Sync()
	cf.c.synced.Store(cf.c.written.Load())
	return err
}

func (cf *countFile) Close() error { return cf.f.Close() }

// openPaced opens a logger in a fresh directory whose undemanded syncs
// are paced at cadence, writing through counting segment files.
func openPaced(t *testing.T, cadence time.Duration, opts Options) (*Logger, *fileCounts, string) {
	t.Helper()
	defer SetSyncCadenceForTesting(cadence)()
	c := &fileCounts{}
	dir := t.TempDir()
	l, err := openWith(dir, func(path string) (segFile, error) {
		f, err := osOpenSeg(path)
		if err != nil {
			return nil, err
		}
		return &countFile{f: f.(*os.File), c: c}, nil
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, c, dir
}

// within runs fn and fails the test if it has not returned after d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v: it waited for the cadence", what, d)
	}
}

// appendN appends n records with TIDs from+1..from+n and returns the
// LSN of the last one and the bytes appended.
func appendN(t *testing.T, l *Logger, from, n int) (uint64, int64) {
	t.Helper()
	var lsn uint64
	var size int64
	for _, r := range crashWorkload(from + n)[from:] {
		frame := EncodeRecord(r)
		var err error
		if lsn, err = l.Append(frame, r.TID); err != nil {
			t.Fatal(err)
		}
		size += int64(len(frame))
	}
	return lsn, size
}

// TestPacedAppendsDoNotSync: appends nobody waits for stay in memory —
// neither written nor synced — until the cadence or a demand; Close is
// a demand and flushes them in one batch.
func TestPacedAppendsDoNotSync(t *testing.T) {
	l, c, dir := openPaced(t, time.Hour, Options{})
	last, size := appendN(t, l, 0, 10)
	time.Sleep(20 * time.Millisecond)
	if w, s := c.writes.Load(), c.syncs.Load(); w != 0 || s != 0 {
		t.Fatalf("undemanded appends caused %d writes and %d syncs", w, s)
	}
	if d := l.Durable(); d != 0 {
		t.Fatalf("watermark %d before any sync", d)
	}
	within(t, 5*time.Second, "Close", func() {
		if err := l.Close(); err != nil {
			t.Error(err)
		}
	})
	if w, b := c.writes.Load(), c.written.Load(); w != 1 || b != size {
		t.Fatalf("Close wrote %d bytes in %d writes, want the %d-byte batch in one", b, w, size)
	}
	if n := l.Syncs(); n != 1 {
		t.Fatalf("Close made %d group-commit syncs, want 1", n)
	}
	if d := l.Durable(); d != last {
		t.Fatalf("watermark %d after Close, want %d", d, last)
	}
	if got := replayAllT(t, dir); len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
}

// TestWaitDurableSyncsAtOnce: a waiter makes the committer sync the
// pending batch immediately, and the watermark never covers a record
// that was not synced.
func TestWaitDurableSyncsAtOnce(t *testing.T) {
	l, c, _ := openPaced(t, time.Hour, Options{})
	defer l.Close()
	first, size := appendN(t, l, 0, 5)
	within(t, 5*time.Second, "WaitDurable", func() {
		if err := l.WaitDurable(first); err != nil {
			t.Error(err)
		}
	})
	if w, b := c.writes.Load(), c.synced.Load(); w != 1 || b != size {
		t.Fatalf("WaitDurable synced %d bytes in %d writes, want the %d-byte batch in one", b, w, size)
	}
	if n := l.Syncs(); n != 1 {
		t.Fatalf("%d group-commit syncs, want 1", n)
	}

	// Three more records nobody waits for: the watermark must stay put.
	second, _ := appendN(t, l, 5, 3)
	time.Sleep(20 * time.Millisecond)
	if d := l.Durable(); d != first {
		t.Fatalf("watermark %d passed the last synced LSN %d", d, first)
	}
	if n := l.Syncs(); n != 1 {
		t.Fatalf("undemanded appends caused a sync (%d in total)", n)
	}
	// Waiting on the middle one syncs the whole pending batch.
	within(t, 5*time.Second, "WaitDurable", func() {
		if err := l.WaitDurable(second - 1); err != nil {
			t.Error(err)
		}
	})
	if d, n := l.Durable(), l.Syncs(); d != second || n != 2 {
		t.Fatalf("after the second wait: watermark %d, %d syncs; want %d, 2", d, n, second)
	}
}

// TestRotateSyncsPendingBatch: a checkpoint rotation flushes the
// pending batch into the segment it seals, without waiting for the
// cadence.
func TestRotateSyncsPendingBatch(t *testing.T) {
	l, c, dir := openPaced(t, time.Hour, Options{})
	defer l.Close()
	last, size := appendN(t, l, 0, 4)
	var seq uint64
	within(t, 5*time.Second, "Rotate", func() {
		var err error
		if seq, err = l.Rotate(); err != nil {
			t.Error(err)
		}
	})
	if seq != 2 {
		t.Fatalf("rotated to segment %d, want 2", seq)
	}
	if w, b, n := c.writes.Load(), c.synced.Load(), l.Syncs(); w != 1 || b != size || n != 1 {
		t.Fatalf("Rotate synced %d bytes in %d writes (%d syncs), want the %d-byte batch once", b, w, n, size)
	}
	if d := l.Durable(); d != last {
		t.Fatalf("watermark %d after Rotate, want %d", d, last)
	}
	recs, err := ReplayFile(filepath.Join(dir, segmentName(1)))
	if err != nil || len(recs) != 4 {
		t.Fatalf("sealed segment replays to %d records (%v), want 4", len(recs), err)
	}
}

// TestByteCapForcesSync: a backlog reaching maxPendingBytes is synced
// with nobody waiting, in one batch.
func TestByteCapForcesSync(t *testing.T) {
	l, c, _ := openPaced(t, time.Hour, Options{})
	defer l.Close()
	val := make([]byte, 64<<10)
	var lsn uint64
	var size int
	for tid := uint64(1); size < maxPendingBytes; tid++ {
		frame := EncodeRecord(Record{TID: tid, Ops: []Op{{Key: "k", Value: val}}})
		var err error
		if lsn, err = l.Append(frame, tid); err != nil {
			t.Fatal(err)
		}
		size += len(frame)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Durable() < lsn {
		if time.Now().After(deadline) {
			t.Fatalf("a %d-byte backlog never synced", size)
		}
		time.Sleep(time.Millisecond)
	}
	if w, b, n := c.writes.Load(), c.synced.Load(), l.Syncs(); w != 1 || b != int64(size) || n != 1 {
		t.Fatalf("byte cap: %d bytes synced in %d writes (%d syncs), want %d in one", b, w, n, size)
	}
}

// TestDurableNeverPassesSynced races appenders, waiters and a short
// cadence against a reader that checks, sample by sample, that the
// watermark never covers a record whose bytes have not been synced.
func TestDurableNeverPassesSynced(t *testing.T) {
	l, c, _ := openPaced(t, 200*time.Microsecond, Options{})
	recSize := int64(len(EncodeRecord(Record{TID: 1, Ops: []Op{{Key: "key", Value: []byte("value")}}})))
	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			// The watermark is read first: it only ever trails the
			// synced byte count, never the other way round.
			d := l.Durable()
			if synced := c.synced.Load() / recSize; int64(d) > synced {
				t.Errorf("watermark %d but only %d records synced", d, synced)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for a := 0; a < 4; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				frame := EncodeRecord(Record{TID: uint64(i + 1), Ops: []Op{{Key: "key", Value: []byte("value")}}})
				lsn, err := l.Append(frame, uint64(i+1))
				if err != nil {
					t.Error(err)
					return
				}
				if a == 0 && i%50 == 0 {
					if err := l.WaitDurable(lsn); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(a)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	checker.Wait()
	if n := l.Syncs(); n >= 1200 {
		t.Fatalf("%d syncs for 1200 records: pacing never batched", n)
	}
}

// TestWriteFailureReachesPacedWaiters: a write error in a demanded
// batch still releases every waiter with the terminal error.
func TestWriteFailureReachesPacedWaiters(t *testing.T) {
	l, c, _ := openPaced(t, time.Hour, Options{})
	last, _ := appendN(t, l, 0, 3)
	c.failWrites.Store(true)
	errs := make(chan error, 2)
	within(t, 5*time.Second, "WaitDurable", func() {
		var wg sync.WaitGroup
		for _, lsn := range []uint64{1, last} {
			wg.Add(1)
			go func(lsn uint64) {
				defer wg.Done()
				errs <- l.WaitDurable(lsn)
			}(lsn)
		}
		wg.Wait()
	})
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, errInjectedWrite) {
			t.Fatalf("waiter got %v, want the injected write failure", err)
		}
	}
	if d := l.Durable(); d != 0 {
		t.Fatalf("watermark %d after a failed first batch", d)
	}
	if !errors.Is(l.Err(), errInjectedWrite) {
		t.Fatalf("Err() = %v", l.Err())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
