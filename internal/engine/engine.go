package engine

import (
	"errors"
	"time"

	"doppel/internal/metrics"
)

// ErrAbort reports a concurrency-control conflict: the transaction had no
// effect and is retried later (the paper's workers retry "at a later
// time, chosen with exponential backoff"; Doppel's core parks it on its
// worker until the conflicting commit releases its locks).
var ErrAbort = errors.New("engine: transaction aborted due to conflict")

// ErrStash reports that a Doppel split phase could not execute the
// transaction because it accessed split data with a non-selected
// operation. The transaction had no effect; the engine has stashed it and
// will re-execute it in the next joined phase.
var ErrStash = errors.New("engine: transaction stashed until next joined phase")

// ErrFenced reports that the transaction touched a record carrying
// another transaction's commit fence: a cross-shard two-phase commit has
// validated that record and not yet applied, so interleaving with it
// would lose one of the writes. The transaction had no effect; the
// caller retries once the fence releases (microseconds in the common
// case).
var ErrFenced = errors.New("engine: record fenced by an in-flight cross-shard commit")

// ErrUnsupported reports an operation the engine cannot execute (for
// example, byte-string values in the Atomic engine).
var ErrUnsupported = errors.New("engine: operation not supported by this engine")

// TxFunc is a transaction body. It may be re-executed after aborts or
// stashes, so it must be a pure function of the database state it reads.
// Returning a non-nil error that is not ErrAbort/ErrStash aborts the
// transaction permanently (user abort).
type TxFunc func(tx Tx) error

// Outcome reports what happened to one Attempt.
type Outcome uint8

// Attempt outcomes.
const (
	Committed Outcome = iota // transaction committed
	// Aborted is a conflict: the caller of Attempt retries later.
	// core.DB.Run never returns it; the worker parks the request and
	// retries it from Poll once the conflicting commit has released its
	// locks, so a conflict never makes the worker spin.
	Aborted
	Stashed   // Doppel stashed it; engine will retry it itself
	UserAbort // the TxFunc returned its own error
	Paused    // engine busy with a phase transition; fn did not run
	// AbortedFenced is Aborted's commit-fence flavor: the transaction
	// touched a record fenced by an in-flight cross-shard commit. The
	// caller should retry, but must not spin on the worker indefinitely —
	// the fence releases only when the cross-shard commit's apply
	// transactions (which may be queued behind this very worker) have
	// run, so a blocked retry loop can deadlock the shard. core.DB.Run
	// parks the request beside conflict-aborted ones; the router's wake
	// after it releases the fence retries it.
	AbortedFenced
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	case Stashed:
		return "stashed"
	case UserAbort:
		return "user-abort"
	case Paused:
		return "paused"
	case AbortedFenced:
		return "aborted-fenced"
	default:
		return "unknown"
	}
}

// FenceTx is implemented by an engine's Ops (see OpsOf) when its
// transactions can execute on behalf of the cross-shard commit holding
// per-key fences: setting the owning
// fence token lets the transaction read and write its own fenced
// records, which every other transaction aborts on. The router's merged
// revalidate+apply transaction is the only caller.
type FenceTx interface {
	// SetFenceToken declares the fence token this transaction owns.
	SetFenceToken(token uint64)
}

// processStart anchors Now.
var processStart = time.Now()

// Now returns monotonic nanoseconds since the process started: the
// clock of Attempt's submitNanos and of every engine latency and phase
// timer. Unlike time.Now().UnixNano() it never steps with the wall
// clock, so an NTP correction can neither stall a phase nor corrupt a
// latency histogram, and it reads one clock instead of two.
func Now() int64 { return int64(time.Since(processStart)) }

// Engine is a concurrency-control scheme under test. Worker IDs are
// 0..Workers()-1; each must be driven from a single goroutine (the
// paper's one-worker-per-core model).
type Engine interface {
	// Name identifies the scheme ("doppel", "occ", "2pl", "atomic").
	Name() string
	// Workers returns the configured worker count.
	Workers() int
	// Attempt executes fn once as worker w. submitNanos is the Now()
	// reading at which the logical transaction was first submitted (for
	// latency accounting across retries). The returned error carries
	// detail for UserAbort.
	Attempt(w int, fn TxFunc, submitNanos int64) (Outcome, error)
	// Poll performs background duties for worker w (phase participation
	// in Doppel; a no-op elsewhere). Harness loops call it when idle.
	Poll(w int)
	// WorkerStats returns worker w's private statistics. Only the owning
	// goroutine may call it during a run; the harness merges after.
	WorkerStats(w int) *metrics.TxnStats
	// Stop releases engine resources (coordinator goroutines etc.).
	Stop()
}
