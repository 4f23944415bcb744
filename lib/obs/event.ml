(** The typed SMR event vocabulary.

    Every reclamation scheme reports its internal activity through the same
    eight events so that schemes can be compared mechanism-to-mechanism
    (retire/reclaim volumes, phase cadence, rollback counts) rather than
    only by end-to-end throughput.  Per-scheme semantics are documented in
    docs/observability.md; the short version:

    - {!Retire} — a node handed to the scheme after its proper retire.
    - {!Reclaim} — a node made available for re-allocation (recorded with
      the batch size, so volumes are comparable across schemes).
    - {!Phase_flip} — a global-progress step: an OA reclamation phase
      processed, or an EBR epoch advance.
    - {!Rollback} — a barrier-triggered restart (OA's warning bit).
    - {!Hazard_scan} — a scan over all threads' protection announcements
      (HP scan, Anchors scan, OA's hazard collection inside a phase).
    - {!Pool_push} / {!Pool_pop} — a chunk moved to / taken from a shared
      pool (OA's retired/processing pools, every scheme's ready pool).
    - {!Alloc_stall} — an allocation slow-path round that had to run
      reclamation because both the ready pool and the bump region were
      empty.
    - {!Mem_grow} / {!Mem_shrink} — an elastic arena mapped one more
      chunk under allocation pressure / handed a fully-free chunk's pages
      back to the OS at quiescence (fixed arenas record neither).

    The [Oa_net] service layer extends the vocabulary with connection and
    request events so that [--metrics] covers a running server end to end:

    - {!Conn_open} / {!Conn_close} — a client connection accepted /
      finished (gracefully or on error).
    - {!Req_enq} — a request accepted and run; counted by the connection
      handler once its round is answered.
    - {!Req_done} — a response produced by a shard's execution context
      (added once per share).
    - {!Req_busy} — a request rejected with BUSY because its round ran
      after the service stopped; counted with {!Req_enq}.
    - {!Proto_error} — a malformed frame on a connection (the connection
      is closed after an ERROR response, never an escaped exception).

    The service additionally records [net_batch] (requests per share a
    handler runs) and [shard_wait_ns] (time a handler blocked on a busy
    execution context, observed only after a failed [try_lock])
    histograms through the same recorders.

    The [Oa_store] durability layer (docs/persistence.md) adds:

    - {!Wal_append} — a mutation record appended to a shard's write-ahead
      log (counted per record, so volumes compare against [Req_done]).
    - {!Wal_fsync} — a group-commit [fsync] actually issued (skipped
      syncs, where an earlier fsync already covered the batch, are not
      counted).
    - {!Ckpt} — a quiesce-anchored checkpoint written (and the WAL
      truncated behind it).
    - {!Replay} — a WAL record re-applied during crash recovery.

    Shard contexts additionally record the [wal_fsync_ns] histogram — the
    latency of each issued group-commit fsync. *)

type t =
  | Retire
  | Reclaim
  | Phase_flip
  | Rollback
  | Hazard_scan
  | Pool_push
  | Pool_pop
  | Alloc_stall
  | Conn_open
  | Conn_close
  | Req_enq
  | Req_done
  | Req_busy
  | Proto_error
  | Mem_grow
  | Mem_shrink
  | Wal_append
  | Wal_fsync
  | Ckpt
  | Replay

let all =
  [
    Retire;
    Reclaim;
    Phase_flip;
    Rollback;
    Hazard_scan;
    Pool_push;
    Pool_pop;
    Alloc_stall;
    Conn_open;
    Conn_close;
    Req_enq;
    Req_done;
    Req_busy;
    Proto_error;
    Mem_grow;
    Mem_shrink;
    Wal_append;
    Wal_fsync;
    Ckpt;
    Replay;
  ]

let count = List.length all

let index = function
  | Retire -> 0
  | Reclaim -> 1
  | Phase_flip -> 2
  | Rollback -> 3
  | Hazard_scan -> 4
  | Pool_push -> 5
  | Pool_pop -> 6
  | Alloc_stall -> 7
  | Conn_open -> 8
  | Conn_close -> 9
  | Req_enq -> 10
  | Req_done -> 11
  | Req_busy -> 12
  | Proto_error -> 13
  | Mem_grow -> 14
  | Mem_shrink -> 15
  | Wal_append -> 16
  | Wal_fsync -> 17
  | Ckpt -> 18
  | Replay -> 19

let to_string = function
  | Retire -> "retire"
  | Reclaim -> "reclaim"
  | Phase_flip -> "phase_flip"
  | Rollback -> "rollback"
  | Hazard_scan -> "hazard_scan"
  | Pool_push -> "pool_push"
  | Pool_pop -> "pool_pop"
  | Alloc_stall -> "alloc_stall"
  | Conn_open -> "conn_open"
  | Conn_close -> "conn_close"
  | Req_enq -> "req_enq"
  | Req_done -> "req_done"
  | Req_busy -> "req_busy"
  | Proto_error -> "proto_error"
  | Mem_grow -> "mem_grow"
  | Mem_shrink -> "mem_shrink"
  | Wal_append -> "wal_append"
  | Wal_fsync -> "wal_fsync"
  | Ckpt -> "ckpt"
  | Replay -> "replay"

let of_string s =
  List.find_opt (fun e -> to_string e = s) all

let pp ppf e = Format.pp_print_string ppf (to_string e)
