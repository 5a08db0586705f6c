// Command doppel-server runs a Doppel database serving a small
// general-purpose procedure set over TCP: get/put/add/max/min/topk.
// The protocol is pipelined; see internal/server.
//
//	doppel-server -addr 127.0.0.1:7777 -workers 4 -max-inflight 256 -flush 100us
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"doppel"
	"doppel/internal/server"
)

func needArgs(args []server.Arg, n int) error {
	if len(args) != n {
		return fmt.Errorf("need %d args, got %d", n, len(args))
	}
	return nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7777", "listen address")
	workers := flag.Int("workers", 4, "worker count (per shard when -shards > 1)")
	shards := flag.Int("shards", 1, "shard the keyspace across this many independent databases (cross-shard transactions use 2PC)")
	maxInFlight := flag.Int("max-inflight", 128, "max concurrently executing requests per connection")
	flush := flag.Duration("flush", 0, "response flush interval (0 flushes when the queue goes idle)")
	maxFrame := flag.Int("max-frame", server.DefaultMaxFrame, "max frame payload bytes")
	walDir := flag.String("wal", "", "durability directory (enables redo logging; recovers existing state on start)")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "checkpoint interval when -wal is set (0 disables)")
	segBytes := flag.Int64("max-segment-bytes", 64<<20, "seal WAL segments at this size, independent of checkpoints (0 disables)")
	walFailStop := flag.Bool("wal-fail-stop", false, "refuse new transactions once the redo logger has failed terminally")
	syncCommit := flag.Bool("sync-commit", false, "acknowledge commits only after their redo record's group commit is fsynced")
	follow := flag.Bool("follow", false, "serve read-only from a replica tailing the -wal directory (writes fail; the primary may be a separate process)")
	followPoll := flag.Duration("follow-poll", time.Millisecond, "replica tail polling interval with -follow")
	followState := flag.String("follow-state", "", "follower checkpoint directory with -follow: restarts resume from the newest follower checkpoint instead of re-bootstrapping from the primary's snapshot")
	scrubEvery := flag.Duration("scrub-every", 0, "background WAL scrub interval when -wal is set (0 disables); damage surfaces in \"stats\"")
	maxServerInFlight := flag.Int("max-server-inflight", 0, "server-wide cap on concurrently executing requests; excess is shed with an overloaded error instead of queueing without bound (0 disables)")
	readTimeout := flag.Duration("read-timeout", 0, "drop connections that deliver no request for this long (0 disables)")
	writeTimeout := flag.Duration("write-timeout", 0, "drop connections that stop reading responses for this long (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests before force-closing connections")
	flag.Parse()

	opts := doppel.Options{Workers: *workers}
	durable := *walDir != ""
	if durable {
		opts.CheckpointEvery = *ckptEvery
		opts.MaxSegmentBytes = *segBytes
		opts.WALFailStop = *walFailStop
		opts.SyncCommit = *syncCommit
		opts.ScrubEvery = *scrubEvery
	}

	// The handlers below drive whichever backend was opened through the
	// same four capabilities; a Cluster and a DB differ only here.
	var (
		backend    server.Backend
		dbStats    func() string
		checkpoint func() error
		closeAll   func()
		// direct registers the mode's wait-free handlers (the
		// read-your-writes token endpoints) once the server exists.
		direct func(srv *server.Server)
	)
	if *follow {
		if !durable {
			log.Fatal("-follow requires -wal (the directory to tail)")
		}
		if *shards > 1 {
			log.Fatal("-follow serves a single directory; combine one follower per shard instead of -shards")
		}
		rep, err := doppel.OpenFollower(*walDir, doppel.FollowerOptions{
			PollInterval: *followPoll,
			StateDir:     *followState,
		})
		if err != nil {
			log.Fatal(err)
		}
		rs := rep.Stats()
		log.Printf("following %s: snapshot %d records, tail at %s (resumed=%v)",
			*walDir, rs.SnapshotEntries, rs.Position, rs.Resumed)
		backend, closeAll = rep, rep.Close
		checkpoint = func() error { return fmt.Errorf("follower is read-only; checkpoint on the primary") }
		dbStats = func() string {
			s := rep.Stats()
			out := fmt.Sprintf("follower applied_lsn=%d position=%s snapshot_entries=%d polls=%d manifest_reads=%d rebootstraps=%d checkpoints=%d resumed=%v",
				s.AppliedLSN, s.Position, s.SnapshotEntries, s.Polls, s.ManifestReads,
				s.Rebootstraps, s.Checkpoints, s.Resumed)
			if s.TailError != "" {
				out += fmt.Sprintf(" tail_error=%q", s.TailError)
			}
			return out
		}
		// waitpos blocks a read-your-writes client until the replica has
		// applied at least the primary position in the client's token
		// (from the primary's "position" endpoint), then returns the
		// replica's applied position. Optional second argument: wait
		// bound in milliseconds (default 10s).
		direct = func(srv *server.Server) {
			srv.RegisterDirect("waitpos", func(args []server.Arg) (server.Arg, error) {
				if len(args) < 1 || len(args) > 2 {
					return server.Nil, fmt.Errorf("need 1 or 2 args, got %d", len(args))
				}
				pos, err := doppel.ParseLogPosition(args[0].String())
				if err != nil {
					return server.Nil, err
				}
				timeout := 10 * time.Second
				if len(args) == 2 {
					ms, err := args[1].Int64()
					if err != nil {
						return server.Nil, err
					}
					timeout = time.Duration(ms) * time.Millisecond
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				if err := rep.WaitPosition(ctx, pos); err != nil {
					return server.Nil, err
				}
				return server.Str(rep.Position().String()), nil
			})
		}
	} else if *shards > 1 {
		copts := doppel.ClusterOptions{Shards: *shards, DB: opts}
		var cl *doppel.Cluster
		if durable {
			tmpl := *walDir
			if !strings.Contains(tmpl, "%d") {
				tmpl = filepath.Join(tmpl, "shard-%d")
			}
			copts.DB.RedoLog = tmpl
			for i := 0; i < *shards; i++ {
				if err := os.MkdirAll(fmt.Sprintf(tmpl, i), 0o755); err != nil {
					log.Fatal(err)
				}
			}
			var err error
			cl, err = doppel.RecoverCluster(tmpl, copts)
			if err != nil {
				log.Fatal(err)
			}
			for i := 0; i < cl.Shards(); i++ {
				rs := cl.DB(i).LastRecovery()
				log.Printf("shard %d recovered from %s: snapshot %q (%d records), %d segments / %d records replayed",
					i, fmt.Sprintf(tmpl, i), rs.SnapshotFile, rs.SnapshotEntries, rs.SegmentsReplayed, rs.RecordsReplayed)
			}
		} else {
			var err error
			cl, err = doppel.OpenCluster(copts)
			if err != nil {
				log.Fatal(err)
			}
		}
		backend, checkpoint, closeAll = cl, cl.Checkpoint, cl.Close
		dbStats = func() string {
			cs := cl.Stats()
			var agg doppel.Stats
			split := 0
			for _, s := range cs.Shards {
				agg.Committed += s.Committed
				agg.Aborted += s.Aborted
				agg.Stashed += s.Stashed
				agg.MergeFailures += s.MergeFailures
				agg.StashDropped += s.StashDropped
				agg.FenceAborts += s.FenceAborts
				split += len(s.SplitKeys)
			}
			return fmt.Sprintf(
				"shards=%d committed=%d aborted=%d stashed=%d merge_failures=%d stash_dropped=%d split=%d single_shard=%d reroutes=%d cross_shard=%d cross_retries=%d cross_aborts=%d fenced_keys=%d fence_aborts=%d apply_lost=%d",
				cl.Shards(), agg.Committed, agg.Aborted, agg.Stashed, agg.MergeFailures, agg.StashDropped, split,
				cs.Router.SingleShard, cs.Router.Reroutes, cs.Router.CrossShard, cs.Router.CrossShardRetries, cs.Router.CrossShardAborts,
				cs.Router.FencedKeys, agg.FenceAborts, cs.Router.CrossShardApplyLost)
		}
	} else {
		var db *doppel.DB
		if durable {
			opts.RedoLog = *walDir
			if err := os.MkdirAll(*walDir, 0o755); err != nil {
				log.Fatal(err)
			}
			var err error
			db, err = doppel.Recover(*walDir, opts)
			if err != nil {
				log.Fatal(err)
			}
			rs := db.LastRecovery()
			log.Printf("recovered from %s: snapshot %q (%d records), %d segments / %d records replayed",
				*walDir, rs.SnapshotFile, rs.SnapshotEntries, rs.SegmentsReplayed, rs.RecordsReplayed)
		} else {
			db = doppel.Open(opts)
		}
		backend, checkpoint, closeAll = db, db.Checkpoint, db.Close
		if durable {
			// position hands a writer its read-your-writes token: the log
			// position its acknowledged writes are durable at, to pass to
			// a follower's "waitpos" before reading there.
			direct = func(srv *server.Server) {
				srv.RegisterDirect("position", func(args []server.Arg) (server.Arg, error) {
					return server.Str(db.LogPosition().String()), nil
				})
			}
		}
		dbStats = func() string {
			s := db.Stats()
			out := fmt.Sprintf(
				"committed=%d aborted=%d stashed=%d merge_failures=%d stash_dropped=%d phase=%s split=%d",
				s.Committed, s.Aborted, s.Stashed, s.MergeFailures, s.StashDropped, s.Phase, len(s.SplitKeys))
			if durable {
				cs := db.CheckpointStats()
				out += fmt.Sprintf(
					" redo_syncs=%d checkpoints=%d ckpt_failures=%d ckpt_seg=%d ckpt_entries=%d ckpt_bytes=%d ckpt_barrier=%v ckpt_walk=%v ckpt_cow=%d",
					s.RedoSyncs, cs.Checkpoints, cs.Failures, cs.LastSeq, cs.LastEntries, cs.LastBytes, cs.LastBarrier, cs.LastWalk, cs.LastCOWSaves)
				if s.RedoLogError != "" {
					out += fmt.Sprintf(" redo_error=%q", s.RedoLogError)
				}
			}
			return out
		}
	}
	defer closeAll()
	srv := server.NewWithOptions(backend, server.Options{
		MaxInFlight:       *maxInFlight,
		FlushEvery:        *flush,
		MaxFrame:          *maxFrame,
		MaxServerInFlight: *maxServerInFlight,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
	})
	if direct != nil {
		direct(srv)
	}

	srv.Register("get", func(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
		if err := needArgs(args, 1); err != nil {
			return server.Nil, err
		}
		n, err := tx.GetInt(args[0].String())
		return server.Int(n), err
	})
	srv.Register("getbytes", func(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
		if err := needArgs(args, 1); err != nil {
			return server.Nil, err
		}
		b, err := tx.GetBytes(args[0].String())
		return server.Bytes(b), err
	})
	srv.Register("put", func(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
		if err := needArgs(args, 2); err != nil {
			return server.Nil, err
		}
		// String() rather than Bytes(): integer-typed args (the CLI sends
		// them for numeric tokens) coerce to their decimal text instead of
		// silently storing nothing.
		return server.Nil, tx.PutBytes(args[0].String(), []byte(args[1].String()))
	})
	intOp := func(op func(tx doppel.Tx, key string, n int64) error) server.Handler {
		return func(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
			if err := needArgs(args, 2); err != nil {
				return server.Nil, err
			}
			n, err := args[1].Int64()
			if err != nil {
				return server.Nil, err
			}
			return server.Nil, op(tx, args[0].String(), n)
		}
	}
	srv.Register("add", intOp(func(tx doppel.Tx, k string, n int64) error { return tx.Add(k, n) }))
	srv.Register("max", intOp(func(tx doppel.Tx, k string, n int64) error { return tx.Max(k, n) }))
	srv.Register("min", intOp(func(tx doppel.Tx, k string, n int64) error { return tx.Min(k, n) }))
	srv.Register("topk-insert", func(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
		if err := needArgs(args, 3); err != nil {
			return server.Nil, err
		}
		order, err := args[1].Int64()
		if err != nil {
			return server.Nil, err
		}
		return server.Nil, tx.TopKInsert(args[0].String(), order, []byte(args[2].String()), 100)
	})
	srv.Register("topk", func(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
		if err := needArgs(args, 1); err != nil {
			return server.Nil, err
		}
		es, err := tx.GetTopK(args[0].String())
		if err != nil {
			return server.Nil, err
		}
		out := ""
		for _, e := range es {
			out += fmt.Sprintf("%d:%s\n", e.Order, e.Data)
		}
		return server.Str(out), nil
	})
	srv.Register("stats", func(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
		requests, errs, lat := srv.Stats()
		out := fmt.Sprintf("%s rpc=%d rpc_errors=%d rpc_p50=%v rpc_p99=%v",
			dbStats(), requests, errs,
			time.Duration(lat.Quantile(0.5)), time.Duration(lat.Quantile(0.99)))
		return server.Str(out), nil
	})
	// Handlers execute on worker goroutines, and a checkpoint barrier
	// needs every worker to reach a transaction boundary — so the RPC
	// only kicks the checkpoint off; progress is visible via "stats".
	srv.Register("checkpoint", func(tx doppel.Tx, args []server.Arg) (server.Arg, error) {
		if !durable {
			return server.Nil, fmt.Errorf("server started without -wal")
		}
		go func() {
			if err := checkpoint(); err != nil {
				log.Printf("checkpoint: %v", err)
			}
		}()
		return server.Str("checkpoint started"), nil
	})

	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("doppel-server listening on %s (%d shards, %d workers/shard, %d in-flight/conn)",
		bound, *shards, *workers, *maxInFlight)

	// Graceful drain on SIGTERM/SIGINT: stop accepting, let in-flight
	// requests finish (bounded by -drain-timeout), flush their responses,
	// then checkpoint so a restart recovers from the snapshot instead of
	// replaying the log, and finally seal the WAL via the deferred close.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("draining (timeout %v)", *drainTimeout)
	srv.Drain(*drainTimeout)
	if durable && !*follow {
		if err := checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
	}
}
