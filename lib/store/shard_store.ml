(** One shard's durable state, bundled: the WAL it appends to, the
    checkpoint that truncates it, and the fetch ladder the replication
    path reads from.

    Layout under the service's [--data-dir]:

    {v
    <data-dir>/shard-<i>/wal-<nnnnnnnn>.seg   append-only record segments
    <data-dir>/shard-<i>/ckpt                 latest snapshot (atomic)
    v}

    The fetch ladder ({!fetch}) serves a follower at position [from]:
    from the WAL's in-memory tail when it is close behind; from the
    segment files when it is far behind but past the last checkpoint;
    otherwise the follower must resync from the checkpoint's key set
    ({!snap_chunk}), because the records behind it were truncated. *)

type t = {
  dir : string;
  wal : Wal.t;
  ckpt_every : int;
  mutable ckpt_seq : int;
  mutable records_since_ckpt : int;
  m : Mutex.t;  (** guards [ckpt_seq], [snap_cache], checkpoint writes *)
  mutable snap_cache : (int * int array) option;
      (** checkpoint key set by seq, for {!snap_chunk} *)
}

let shard_dir ~data_dir index =
  Filename.concat data_dir (Printf.sprintf "shard-%d" index)

(** [open_shard ~data_dir ~index ... ~on_snapshot ~on_record] recovers
    shard [index]'s directory (callbacks as in {!Recovery.run}) and opens
    its WAL for appending after the last recovered record. *)
let open_shard ~data_dir ~index ~segment_bytes ~ckpt_every ~on_snapshot
    ~on_record =
  let dir = shard_dir ~data_dir index in
  Wal.mkdir_p dir;
  let recovery = Recovery.run ~dir ~on_snapshot ~on_record in
  let wal =
    Wal.create ~dir ~segment_bytes ~start_seq:recovery.Recovery.last_seq ()
  in
  let t =
    {
      dir;
      wal;
      ckpt_every;
      ckpt_seq = recovery.Recovery.ckpt_seq;
      records_since_ckpt = recovery.Recovery.replayed;
      m = Mutex.create ();
      snap_cache = None;
    }
  in
  (t, recovery)

let last_seq t = Wal.last_seq t.wal

(** Append effective mutations (parallel arrays, first [n] entries);
    returns [(last_seq, rotated)] as {!Wal.append}. *)
let append t ~n ops keys =
  let r = Wal.append t.wal ~n ops keys in
  (* racy under >1 worker, but the mid-run checkpoint trigger is only
     armed single-worker; see Service *)
  t.records_since_ckpt <- t.records_since_ckpt + n;
  r

let sync t ~upto = Wal.sync t.wal ~upto

(** The mid-run checkpoint trigger: enough records accumulated since the
    last snapshot.  [ckpt_every <= 0] disables it. *)
let wants_checkpoint t =
  t.ckpt_every > 0 && t.records_since_ckpt >= t.ckpt_every

(** Write a checkpoint of [keys] (the shard's full key set, sampled at a
    quiescent point covering every appended record) and truncate the WAL
    behind it.  Returns the sequence the checkpoint covers. *)
let checkpoint t ~keys ~gauges =
  Mutex.protect t.m @@ fun () ->
  let seq = Wal.seal t.wal in
  Checkpoint.write ~dir:t.dir { Checkpoint.seq; keys; gauges };
  Wal.drop_sealed t.wal;
  t.ckpt_seq <- seq;
  t.records_since_ckpt <- 0;
  t.snap_cache <- Some (seq, keys);
  seq

let close t = Wal.close t.wal

(* --- replication reads --- *)

type fetch =
  | Records of Record.t list * int  (** records after [from], appended seq *)
  | Snapshot_needed of int * int  (** checkpoint seq, key count *)

let snap_keys t =
  Mutex.lock t.m;
  let r =
    match t.snap_cache with
    | Some (seq, keys) when seq = t.ckpt_seq -> Some (seq, keys)
    | _ -> (
        match Checkpoint.read ~dir:t.dir with
        | Some c when c.Checkpoint.seq = t.ckpt_seq ->
            t.snap_cache <- Some (c.Checkpoint.seq, c.Checkpoint.keys);
            t.snap_cache
        | _ -> None)
  in
  Mutex.unlock t.m;
  r

(** Serve a follower at [from]: memory tail, then segment files, then
    [Snapshot_needed] when [from] predates the last checkpoint. *)
let fetch t ~from ~max =
  match Wal.fetch t.wal ~from ~max with
  | Wal.Records (rs, last) -> Records (rs, last)
  | Wal.Too_old ->
      if from >= t.ckpt_seq then
        let rs, file_last = Wal.scan_from ~dir:t.dir ~from ~max in
        Records (rs, Stdlib.max file_last (Wal.last_seq t.wal))
      else
        let seq, total =
          match snap_keys t with
          | Some (seq, keys) -> (seq, Array.length keys)
          | None -> (t.ckpt_seq, 0)
        in
        Snapshot_needed (seq, total)

(** One chunk of the checkpoint key set, for a follower resyncing from
    the snapshot: [(ckpt_seq, total, keys.(offset .. offset+max-1))]. *)
let snap_chunk t ~offset ~max =
  match snap_keys t with
  | None -> (t.ckpt_seq, 0, [||])
  | Some (seq, keys) ->
      let total = Array.length keys in
      let n = Stdlib.max 0 (Stdlib.min max (total - offset)) in
      (seq, total, Array.sub keys offset n)
