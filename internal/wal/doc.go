// Package wal implements a segmented, asynchronous, batched redo log —
// the durability design the paper defers to future work ("existing work
// suggests that asynchronous batched logging could be added to Doppel
// without becoming a bottleneck", §3, citing Silo and Hekaton).
//
// A log lives in a directory of numbered segment files
// (wal-00000001.log, wal-00000002.log, ...) plus a MANIFEST that names
// the newest durable snapshot, the first segment recovery must replay,
// and the TID range and record count of every live sealed segment.
// Writers pre-encode redo records (AppendRecord) into buffers they own
// and submit the bytes with Append, which assigns each record a
// monotonically increasing log sequence number (LSN) and returns
// without waiting for I/O. A single background goroutine batches
// everything that arrived since its last write, writes one group to the
// current segment, syncs once, and then advances the durability
// watermark to the batch's highest LSN — one atomic store and one
// condition broadcast per fsync, however many records the batch held.
// Durability is observed against the watermark: a record is durable
// once Durable() reaches its LSN, and WaitDurable(lsn) blocks until it
// does (AppendSync bundles encode + append + wait for callers off the
// hot path). Records carry a CRC so torn tails are detected and ignored
// at replay.
//
// # Group-commit pacing
//
// The committer writes and syncs a pending batch at once when something
// needs it on disk: a WaitDurable caller beyond the watermark (which is
// how synchronous commits and AppendSync wait), a queued Rotate, Close,
// or 1 MiB of pending bytes. Otherwise it lets the batch gather records
// until 2 ms (the cadence) after the previous sync, so asynchronous
// commits share one write and one fsync per cadence rather than paying
// one per committer round trip. An idle logger stays idle: the committer
// sleeps on its condition variable, and its one reused pace timer is
// armed only while a batch is pending. The write is deferred together
// with the sync, so the bytes in the segment files are the durable
// bytes plus at most the one batch being synced: a follower tailing the
// directory sees no more than it did with back-to-back syncs. The price
// is bounded: with nobody waiting, a record reaches disk — and a write
// failure behind it is detected, engaging fail-stop — within the
// cadence plus two batch writes and fsyncs of its append (the batch in
// flight at the time, then its own), and a follower's staleness grows
// by at most the cadence.
//
// Segments seal two ways: checkpoints call Rotate at a quiesced
// barrier, and Options.MaxSegmentBytes seals a segment when the next
// record would pass the budget, cutting a group commit at a record
// boundary and continuing it in the next segment. Either way the
// sealed segment's metadata is published in the manifest, Install
// publishes a snapshot and garbage-collects the segments (and
// metadata) the snapshot subsumes, and recovery replays only segments
// at or after the manifest's sequence number.
//
// # Invariants
//
//   - Append order per key follows commit order: a committer holds the
//     record's commit lock while submitting its redo record, so records
//     touching one key enter the log in strictly increasing TID order.
//     Recovery's highest-TID-wins replay depends on this.
//   - Segment boundaries fall on record boundaries: explicit rotation
//     happens between group commits, size-based rotation where the
//     committer cuts a batch between two records.
//   - Torn-tail trim rule: reopening an existing directory never
//     truncates acknowledged data. Only bytes past the last valid
//     record of the newest segment — bytes that were never part of a
//     completed group-commit acknowledgement — are trimmed, so any
//     number of crash → recover cycles preserve state. Corruption
//     anywhere else (a sealed segment, a gap in the sequence, the
//     manifest, a sealed segment disagreeing with its recorded
//     metadata) fails recovery loudly instead of dropping commits.
//   - Write failures are terminal: after any segment write, sync, seal
//     or manifest failure the logger refuses further appends and
//     reports the cause via Err, because records appended behind
//     unreplayable bytes would look durable but be unrecoverable. The
//     watermark freezes at the last synced batch: WaitDurable keeps
//     acknowledging LSNs at or below it (those records are on disk)
//     and reports the terminal error for everything later.
package wal
