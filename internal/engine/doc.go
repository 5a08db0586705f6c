// Package engine defines the contract shared by every concurrency-control
// engine in this repository: Doppel (phase reconciliation), OCC, 2PL and
// Atomic. The benchmark harness drives all four through this interface so
// their measurements differ only in concurrency control, matching the
// paper's setup ("Both OCC and 2PL are implemented in the same framework
// as Doppel", §8.1).
//
// # The driving contract
//
// Each worker index w must be driven from a single goroutine calling
// Attempt (run one transaction) and Poll (participate in engine
// housekeeping — for Doppel, phase transitions) between transactions.
// Transaction bodies receive a Tx and may be re-executed after
// conflicts or stashes, so they must be pure functions of the database
// state they read. The sentinel errors classify outcomes: ErrAbort is
// a retryable conflict, ErrStash means the transaction was saved for
// the next joined phase (Doppel only); anything else is the caller's
// own error and aborts without retry.
//
// # One transaction surface
//
// Tx is a concrete type: its sixteen operations (Get, GetInt, Put, Add,
// OPut, ...) are written once, in this package, over Ops — a Read and a
// Write of one record plus WorkerID. Every engine implements only Ops,
// and so do the replica's read-only view and the router's probe,
// single-shard check and cross-shard gather: GetInt is Read plus
// Value.AsInt everywhere, and Add is Write of a store.Op{Kind: OpAdd}.
// Each write reaches the engine as a store.Op, the same value the
// per-core slices, the joined-phase commit and the cross-shard replay
// apply through store.Apply, so the router replays a buffered write
// with one Write call. PutInt and PutBytes carry their operand in the
// op and leave building the value to store.Apply, so a write that is
// vetoed or aborted before commit allocates nothing. Each operation
// costs one dynamic call, to Read or Write; OpsOf reaches an engine's
// extensions, such as FenceTx.
package engine
