// Package store is the shared-memory substrate every engine in this
// repository builds on: immutable typed values, the semantics of the
// paper's splittable operations (§4, implemented in ops.go), records
// with Silo-style TID words (record.go), and a sharded hash-map
// key/value store with per-key locks (§6, store.go).
//
// # Invariants
//
// Values are immutable: applying an operation produces a fresh *Value,
// never a mutation. Records publish values through an atomic pointer,
// which makes the Silo read protocol (read TID word, read value,
// re-check TID word) race-free under the Go memory model.
//
// Per-key TID monotonicity: every install of a (value, TID) pair on a
// record carries a TID strictly greater than the record's previous one.
// The commit protocols guarantee this during normal operation (commit
// TIDs exceed every observed TID), recovery preserves it by restoring
// pre-crash TIDs and installing snapshot entries and redo records under
// the highest-TID-wins rule (Record.InstallRecovered,
// Record.InstallIfNewer). Everything downstream leans on it: OCC
// validation, snapshot/replay deduplication, and the order-independence
// of parallel recovery.
//
// # Durability hooks
//
// snapshot.go defines the one checkpoint snapshot format — CRC-framed
// entries streamed without an up-front count, closed by a terminator
// frame that carries it — and the one install rule: ReadSnapshotInto
// decodes in parallel and installs every entry through the per-key
// highest-TID-wins filter (Record.InstallRecovered), so a load is
// correct whether log replay runs into the same store before, during or
// after it. ReadSnapshot is the sequential reference reader. cow.go
// implements the incremental copy-on-write capture protocol that lets a
// checkpoint collect a consistent snapshot concurrently with writers
// after an O(1) barrier. Engines that install values while a capture
// may be active must call SaveBeforeWrite under the record's commit
// lock first.
package store
