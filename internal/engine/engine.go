package engine

import (
	"errors"
	"time"

	"doppel/internal/metrics"
	"doppel/internal/store"
)

// ErrAbort reports a concurrency-control conflict: the transaction had no
// effect and the caller should retry it later (the paper's workers retry
// "at a later time, chosen with exponential backoff").
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

// Tx is the operation interface a transaction body programs against. All
// methods access exactly one record, per the paper's data model (§3);
// transactions compose multi-record logic from them. Blind update
// operations (Add, Max, ...) return only errors: splittable operations
// must return nothing (§4 guideline 2).
type Tx interface {
	// Get returns the record's current value (nil if absent).
	Get(key string) (*store.Value, error)
	// GetForUpdate is Get plus a write-intent hint: the 2PL engine takes
	// the write lock immediately (SELECT ... FOR UPDATE) so that
	// read-then-write transactions cannot deadlock on lock upgrades.
	// Other engines treat it exactly as Get.
	GetForUpdate(key string) (*store.Value, error)
	// GetInt returns an integer record's value, 0 if absent.
	GetInt(key string) (int64, error)
	// GetIntForUpdate is GetInt with the GetForUpdate hint.
	GetIntForUpdate(key string) (int64, error)
	// GetBytes returns a byte-string record's value, nil if absent.
	GetBytes(key string) ([]byte, error)
	// GetTuple returns an ordered-tuple record's value.
	GetTuple(key string) (store.Tuple, bool, error)
	// GetTopK returns the entries of a top-K record, best first.
	GetTopK(key string) ([]store.TopKEntry, error)

	// Put overwrites the record's value. Put does not commute and is
	// never splittable.
	Put(key string, v *store.Value) error
	// PutInt and PutBytes are Put conveniences.
	PutInt(key string, n int64) error
	PutBytes(key string, b []byte) error

	// Add adds n to an integer record (splittable).
	Add(key string, n int64) error
	// Max raises an integer record to at least n (splittable).
	Max(key string, n int64) error
	// Min lowers an integer record to at most n (splittable).
	Min(key string, n int64) error
	// Mult multiplies an integer record by n (splittable).
	Mult(key string, n int64) error
	// OPut performs an ordered put: the tuple with the highest (order,
	// core ID) wins (splittable). The engine supplies the core ID.
	OPut(key string, order store.Order, data []byte) error
	// TopKInsert inserts (order, coreID, data) into a top-K set record,
	// creating it with bound k if absent (splittable).
	TopKInsert(key string, order int64, data []byte, k int) error

	// WorkerID identifies the worker executing this transaction.
	WorkerID() int
}

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
	Aborted                  // conflict; caller should retry with backoff
	Stashed                  // Doppel stashed it; engine will retry it itself
	UserAbort                // the TxFunc returned its own error
	Paused                   // engine busy with a phase transition; fn did not run
	// AbortedFenced is Aborted's commit-fence flavor: the transaction
	// touched a record fenced by an in-flight cross-shard commit. The
	// caller should retry, but must not spin on the worker indefinitely —
	// the fence releases only when the cross-shard commit's apply
	// transactions (which may be queued behind this very worker) have
	// run, so a blocked retry loop can deadlock the shard. Callers park
	// the transaction instead, as core.DB.Run does on the worker until
	// its next wake.
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

// FenceTx is implemented by transactions that can execute on behalf of
// the cross-shard commit holding per-key fences: setting the owning
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
