(** Crash-at-batch-boundary checking for the durability subsystem
    (docs/persistence.md): drive a real one-shard, one-worker
    {!Oa_net.Service} with a data directory through rounds of operations
    — each round one {!Oa_net.Service.stage} … {!Oa_net.Service.await},
    so the worker executes it, appends the effective mutations to the
    WAL, group-commit fsyncs and only then acks — and at {e every} round
    boundary capture the on-disk state, as a crash immediately after the
    ack would leave it.  Each captured state is then recovered by
    {!Oa_net.Service.create} on a copy of the directory and compared
    against the sequential model at that boundary:

    - {e no acked write lost}: every key the model holds at the boundary
      is present after recovery;
    - {e no unacked write resurrected}: no key absent from the model at
      the boundary is present after recovery;
    - {e conservation}: after recovery's replay and its quiesce, the
      recovered service's drain report balances reclaim against retire
      and validates the table — recovery must not corrupt the scheme's
      bookkeeping either.

    Each boundary is additionally checked {e torn}: a partial frame of
    the next round's first record is appended to the captured log (the
    bytes a crash mid-[write(2)] leaves) and recovery must ignore it —
    an unacked write must not be half-resurrected by its torn record.

    The service checkpoints on its own trigger ([ckpt_every] records,
    the single-worker quiesce-and-snapshot of the worker loop), so the
    captured states exercise all three recovery shapes: WAL-only,
    checkpoint-only, and checkpoint + replay.

    Runs on the real backend with one worker: crash durability is a
    property of the log discipline, not of the schedule, and the schedule
    explorer ({!Explore}) already owns the concurrency side.  The scheme
    still matters — recovery replays through the scheme's batched path,
    and CI runs the checker for all seven schemes. *)

module Schemes = Oa_smr.Schemes
module Sv = Oa_net.Service
module Record = Oa_store.Record
module SM = Oa_util.Splitmix

type config = {
  scheme : Schemes.id;
  seeds : int;
  seed0 : int;
  groups : int;  (** rounds per seed — one boundary captured after each *)
  batch : int;  (** operations per round *)
  key_range : int;
  prefill : int;
  segment_bytes : int;  (** small, to force rotation under the checker *)
  ckpt_every : int;
      (** the live service's checkpoint trigger, in WAL records; 0 never *)
}

let default_config =
  {
    scheme = Schemes.Optimistic_access;
    seeds = 8;
    seed0 = 1;
    groups = 12;
    batch = 8;
    key_range = 64;
    prefill = 16;
    segment_bytes = 512;
    ckpt_every = 32;
  }

type outcome = {
  seeds_run : int;
  boundaries : int;  (** boundary states recovered and compared *)
  torn : int;  (** of which re-checked with a torn tail *)
  from_ckpt : int;  (** recoveries that loaded checkpoint keys *)
  replaying : int;  (** recoveries that replayed WAL records *)
  replayed : int;  (** WAL records replayed across all recoveries *)
  failures : string list;
}

(* --- tiny fs helpers (the checker may not shell out) --- *)

let rm_rf dir =
  let rec go path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun n -> go (Filename.concat path n)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
  in
  go dir

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* Copy shard 0's directory of data dir [src] into data dir [dst]. *)
let copy_shard src dst =
  let from = Oa_store.Shard_store.shard_dir ~data_dir:src 0 in
  let into = Oa_store.Shard_store.shard_dir ~data_dir:dst 0 in
  Unix.mkdir dst 0o755;
  Unix.mkdir into 0o755;
  Array.iter
    (fun n -> write_file (Filename.concat into n) (read_file (Filename.concat from n)))
    (Sys.readdir from);
  into

(* The service both sides run: one shard, one worker, a queue and a
   dequeue bound of one round, so each round is one worker batch — one
   append and one fsync.  A delta of twice the key range leaves arena
   room for the whole key set plus the retired nodes that the service's
   reclamation thresholds (delta / 2) let pile up. *)
let service_config cfg ~seed ~prefill data_dir =
  {
    Sv.default_config with
    Sv.scheme = cfg.scheme;
    shards = 1;
    workers_per_shard = 1;
    prefill;
    key_range = cfg.key_range;
    delta = 2 * cfg.key_range;
    chunk_size = 16;
    queue_capacity = cfg.batch;
    dequeue_batch = cfg.batch;
    seed;
    data_dir = Some data_dir;
    segment_bytes = cfg.segment_bytes;
    ckpt_every = cfg.ckpt_every;
  }

(* Recover data dir [dir] into a fresh service; returns (sorted contents,
   checkpoint keys loaded, records replayed, conservation verdict).
   [stop] without [start] closes the WAL — and checkpoints [dir], which
   is a disposable copy. *)
let recover cfg ~seed dir =
  let t = Sv.create (service_config cfg ~seed ~prefill:0 dir) in
  let got = Sv.contents t in
  Sv.stop t;
  ( got,
    Sv.recovered_ckpt_keys t,
    Sv.recovered_records t,
    (Sv.drain_report t).Sv.conservation_ok )

let model_keys model =
  let acc = ref [] in
  for k = Array.length model - 1 downto 1 do
    if model.(k) then acc := k :: !acc
  done;
  Array.of_list !acc

(* One partial frame of [r] — the first [cut] bytes, [0 < cut <
   frame_len] — as a crash mid-append would leave on disk. *)
let torn_bytes r ~cut =
  let buf = Buffer.create Record.frame_len in
  Record.encode buf r;
  String.sub (Buffer.contents buf) 0 cut

let run_seed cfg ~seed ~failures (o : outcome) =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "oa-crash-%d-%d" (Unix.getpid ()) seed)
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  let live_dir = Filename.concat root "live" in
  let live = Sv.create (service_config cfg ~seed ~prefill:cfg.prefill live_dir) in
  let model = Array.make (cfg.key_range + 1) false in
  Array.iter (fun k -> model.(k) <- true) (Sv.contents live);
  let rng = SM.create ((seed * 7919) + 17) in
  let round = Sv.new_batch () in
  let fail msg = failures := Printf.sprintf "seed %d: %s" seed msg :: !failures in
  (* one round: draw, stage, await the ack, compare to the model *)
  let exec_round () =
    let items =
      Array.init cfg.batch (fun _ ->
          let kind = if SM.below rng 2 = 0 then Sv.Insert else Sv.Delete in
          Sv.stage live round kind (1 + SM.below rng cfg.key_range))
    in
    Sv.await round;
    Array.iter
      (fun (it : Sv.item) ->
        let k = it.Sv.key and ins = it.Sv.kind = Sv.Insert in
        let expect = if ins then not model.(k) else model.(k) in
        if it.Sv.busy || it.Sv.failed then
          fail (Printf.sprintf "%s %d was not executed" (if ins then "insert" else "delete") k)
        else if it.Sv.result <> expect then
          fail
            (Printf.sprintf
               "round result diverges from sequential model (%s %d: got %b, want %b)"
               (if ins then "insert" else "delete")
               k it.Sv.result expect);
        model.(k) <- ins)
      items
  in
  let snapshots = ref [] in
  Fun.protect ~finally:(fun () -> Sv.stop live) (fun () ->
      Sv.start live;
      for g = 0 to cfg.groups - 1 do
        exec_round ();
        (* capture the boundary: exactly the bytes a crash after this
           round's ack would find *)
        let saved = Filename.concat root (Printf.sprintf "boundary-%d" g) in
        let shard_dir = copy_shard live_dir saved in
        snapshots := (g, saved, shard_dir, model_keys model) :: !snapshots
      done);
  (* recover every boundary, clean and torn *)
  List.fold_left
    (fun (o : outcome) (g, saved, shard_dir, expect) ->
      let check ~label (o : outcome) dir =
        let got, ckpt_keys, replayed, conserved = recover cfg ~seed dir in
        if got <> expect then
          fail
            (Printf.sprintf
               "boundary %d%s: recovered %d keys, model has %d (acked write lost or unacked resurrected)"
               g label (Array.length got) (Array.length expect));
        if not conserved then
          fail (Printf.sprintf "boundary %d%s: conservation violated after recovery" g label);
        {
          o with
          from_ckpt = (o.from_ckpt + if ckpt_keys > 0 then 1 else 0);
          replaying = (o.replaying + if replayed > 0 then 1 else 0);
          replayed = o.replayed + replayed;
        }
      in
      (* torn variant: half a frame of the next record appended to the
         newest segment — copied first, since recovering [saved]
         checkpoints it and drops its segments *)
      let segs = List.sort compare (Sys.readdir shard_dir |> Array.to_list) in
      let torn_dir =
        match List.rev (List.filter (fun f -> Filename.check_suffix f ".seg") segs) with
        | [] -> None
        | newest :: _ ->
            let torn_dir = saved ^ "-torn" in
            let torn_shard = copy_shard saved torn_dir in
            let cut = 1 + SM.below rng (Record.frame_len - 1) in
            let extra =
              torn_bytes { Record.seq = 1_000_000 + g; op = Record.Insert; key = 1 } ~cut
            in
            let path = Filename.concat torn_shard newest in
            write_file path (read_file path ^ extra);
            Some torn_dir
      in
      let o = check ~label:"" { o with boundaries = o.boundaries + 1 } saved in
      match torn_dir with
      | None -> o
      | Some dir -> check ~label:" (torn)" { o with torn = o.torn + 1 } dir)
    o (List.rev !snapshots)

(** Run the checker; [Ok outcome] has [failures = []] iff every boundary
    of every seed recovered to exactly its sequential model with
    conservation intact. *)
let run cfg =
  if cfg.seeds < 1 || cfg.groups < 1 || cfg.batch < 1 || cfg.prefill > cfg.key_range
  then
    invalid_arg "Oa_check.Crash.run";
  let failures = ref [] in
  let zero =
    {
      seeds_run = cfg.seeds;
      boundaries = 0;
      torn = 0;
      from_ckpt = 0;
      replaying = 0;
      replayed = 0;
      failures = [];
    }
  in
  let o =
    List.fold_left
      (fun o s -> run_seed cfg ~seed:(cfg.seed0 + s) ~failures o)
      zero
      (List.init cfg.seeds Fun.id)
  in
  { o with failures = List.rev !failures }

let pp_outcome ppf o =
  Format.fprintf ppf
    "%d seeds, %d boundaries recovered (%d also torn; %d from a checkpoint, \
     %d replaying %d WAL records): %s"
    o.seeds_run o.boundaries o.torn o.from_ckpt o.replaying o.replayed
    (match o.failures with
    | [] -> "all recoveries equal the sequential model"
    | fs -> Printf.sprintf "%d FAILURES" (List.length fs))
