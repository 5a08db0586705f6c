// Package checkpoint turns the segmented WAL into a bounded-recovery
// durability layer: a checkpointer periodically captures a consistent
// snapshot of the store, rotates the log to a fresh segment, publishes
// the snapshot in the log's manifest, and garbage-collects the segments
// the snapshot subsumes. Recovery then loads the newest snapshot and
// replays only the segments written after it, so both replay time and
// disk usage are bounded by the checkpoint interval instead of the
// database's lifetime.
//
// # The incremental cut
//
// A checkpoint cut begins inside a core.DB barrier transition, i.e.
// with every worker paused between transactions and all per-core slices
// reconciled. The barrier itself is O(1): it rotates the log and starts
// a store.Capture, then the workers resume. The O(records) walk runs
// concurrently with traffic under the copy-on-write protocol (see
// store/cow.go): a post-barrier writer that reaches a record before the
// walk does saves the record's pre-barrier state aside first, so the
// assembled snapshot is exactly the store's state at the barrier. The
// walk hands each entry straight to a store.SnapshotWriter inside the
// atomic file write, so checkpoint memory does not grow with the store.
// A checkpoint requested while another phase transition is in flight
// waits on that transition's release channel (core.DB.RequestBarrier
// returns it) and then publishes its own barrier; nothing polls.
//
// # The consistency argument
//
// At the barrier, each committed value is visible in the store and its
// redo record has been submitted to the logger, and no commit is in
// flight. Rotate flushes those records to the sealed segments, so
// snapshot ⊇ every record in segments before the cut; records logged
// after the cut land in newer segments and carry per-key TIDs larger
// than the snapshot's, so replaying them over the snapshot is exact.
// The snapshot is published atomically (write + fsync + rename +
// manifest install), so a crash at any point mid-checkpoint leaves the
// previous checkpoint authoritative and recovery replays across the
// aborted cut's rotation as if it never happened.
//
// # Recovery
//
// There is one production path and one reference. LoadStore is the
// production path, used by primary recovery; a replication follower
// bootstraps through the same LoadSnapshot call it makes. The snapshot
// decodes on GOMAXPROCS goroutines sharded by key while the live
// segments replay concurrently with it and with each other. Order
// independence holds because every install — snapshot entry or redo
// record — applies only when it advances the key's TID, atomically per
// record: per-key TIDs are unique and monotone in log order, and a live
// segment's records post-date the snapshot's entry for the same key, so
// highest-TID-wins converges to the sequential result from any
// interleaving. Load/BuildStore is the sequential reference
// implementation the equivalence tests compare LoadStore against. The
// manifest's sealed-segment metadata (TID ranges, record counts) is
// checked against what each segment actually replays to, so sealed-file
// corruption fails recovery loudly.
package checkpoint
