package doppel

import (
	"errors"

	"doppel/internal/repl"
)

// Sentinel errors. API errors that callers are expected to branch on
// are exported here and matchable with errors.Is; richer messages wrap
// them with context (the option or directory involved).
var (
	// ErrClosed reports an operation on a database (or cluster) after
	// Close. Exec, ExecContext, ExecAsync and Checkpoint return it —
	// directly or wrapped — once shutdown has begun.
	ErrClosed = errors.New("doppel: database closed")

	// ErrRequiresRedoLog reports an option that is meaningless without a
	// durability directory (CheckpointEvery, MaxSegmentBytes, SyncCommit,
	// ScrubEvery, WALFailStop) set while Options.RedoLog is empty.
	// Options.Validate wraps it once per violating option.
	ErrRequiresRedoLog = errors.New("doppel: option requires RedoLog")

	// ErrLogExists reports an Open/OpenErr against a durability directory
	// that already holds logged state. Appending a fresh database's
	// records behind an old generation's would make the new writes
	// unrecoverable; use Recover for existing directories.
	ErrLogExists = errors.New("doppel: directory contains an existing log; use Recover")

	// ErrOverloaded reports a request shed because the server's in-flight
	// budget was exhausted. The request was not executed; the connection
	// stays usable and the caller should back off and retry.
	ErrOverloaded = errors.New("doppel: server overloaded")

	// ErrRetriesExhausted reports a request a retrying client gave up on
	// after its reconnect/backoff budget ran out. Wrapped failures carry
	// the last underlying error for inspection with errors.Is/As.
	ErrRetriesExhausted = errors.New("doppel: retries exhausted")
)

// ErrReadOnly reports a write operation inside a Replica view. A replica
// applies only what the primary's log dictates; a local write would
// diverge and be silently overwritten by replay. It aliases the internal
// sentinel so errors.Is matches whichever layer reported it.
var ErrReadOnly = repl.ErrReadOnly
