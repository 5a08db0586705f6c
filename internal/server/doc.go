// Package server provides Doppel's network interface: "clients submit
// transactions in the form of procedures" (§3) over TCP (§6: "Doppel
// supports RPC from remote clients over TCP"). Applications register
// named procedures; clients invoke them by name with typed arguments.
//
// The protocol is pipelined: requests carry IDs, so a client keeps many
// requests in flight on one connection and the server answers in
// whatever order transactions commit. Each connection runs a reader
// that fans requests out to the database's worker pool (bounded by
// Options.MaxInFlight) and a single flusher goroutine that batches
// response writes, which is what lets one TCP connection saturate the
// phase-reconciliation engine instead of paying a network round trip
// per transaction. See wire.go for the frame format.
//
// # Invariants
//
//   - Frames are length-prefixed and bounded by Options.MaxFrame; an
//     oversized or malformed frame fails the connection, never the
//     server.
//   - Responses for one connection are written by exactly one flusher
//     goroutine (writer.go), so replies are never interleaved
//     mid-frame even though they complete out of order.
//   - Handlers run inside a database transaction on worker goroutines;
//     a handler error aborts only its own transaction and is reported
//     to the client as a typed error response.
//
// # Buffer ownership
//
// The per-request path allocates nothing of its own in steady state;
// these rules are what make reusing its buffers safe.
//
//   - Each connection end reads through one frameReader. A frame's
//     payload is valid only until the next read, so decoders copy out
//     everything that outlives it: byte-string args and results are
//     always fresh copies (a handler may keep them; tx.PutBytes stores
//     them by reference).
//   - Each connection end writes through one frameWriter: one batch
//     buffer per direction. A sender owns it between begin and end (or
//     cancel), under its lock, and encodes exactly one frame into it;
//     the flusher owns a batch from the swap until its Write returns,
//     then keeps it as the spare.
//   - The read loop owns a pooled request frame while decoding into it.
//     Dispatch hands it to the executing worker; the completion
//     callback encodes the response and releases the frame to the pool
//     as its last use. Requests the read loop answers itself (session
//     binds, unknown procedures, sheds, replays) keep the frame for the
//     next decode.
//   - A session-dedup response is encoded into a private slice, never
//     the batch buffer, because the session caches and replays it.
//   - A direct handler gets its own copy of its args: it runs on its
//     own goroutine while the read loop decodes further requests.
package server
