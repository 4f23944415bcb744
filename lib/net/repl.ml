(** Log shipping, follower side: stream a primary's WAL records over the
    wire protocol and apply them to a local (volatile) service.

    Started by [oa_cli serve --follow HOST:PORT].  One domain loops over
    the primary's shards issuing FETCH(shard, applied) and applying the
    returned records through the local service's batched path; when the
    primary answers SNAP_NEEDED — the follower's position predates the
    primary's checkpoint, the records behind it are truncated — the
    follower resyncs that shard from the checkpoint key set in SNAP
    chunks, then resumes FETCHing from the checkpoint sequence.

    The replica itself is volatile by design: it keeps no WAL of its own.
    Losing a replica loses nothing durable (the primary has the log), and
    a restarted replica simply re-fetches from sequence 0 — set mutations
    replayed in log order are idempotent at the history level, so the
    re-application converges to the primary's contents.  What the replica
    {e applies} is the primary's record stream, not its own guesses: its
    server side is read-only (local INSERT/DELETE answer ERROR).

    Shard topology note: the replica fetches the {e primary's} shards and
    applies each record by key through its own routing, so the two sides
    need not even agree on shard count — convergence is per-key.  (The
    CLI starts the replica with the primary's own shard count anyway.) *)

type config = {
  host : string;
  port : int;
  fetch_max : int;  (** records per FETCH round-trip *)
  poll_interval : float;  (** seconds between polls when caught up *)
  retry_interval : float;  (** seconds between reconnect attempts *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7440;
    fetch_max = Protocol.max_fetch_records;
    poll_interval = 0.002;
    retry_interval = 0.2;
  }

type t = {
  cfg : config;
  service : Service.t;
  stop_flag : bool Atomic.t;
  (* per-primary-shard applied position, written by the follower domain,
     read by [lag]/[caught_up] probes *)
  mutable applied : int Atomic.t array;
  mutable primary_last : int Atomic.t array;
  rounds : int Atomic.t;  (** FETCH round-trips completed *)
  applied_records : int Atomic.t;
  snap_keys : int Atomic.t;  (** keys applied via snapshot resync *)
  mutable follower : unit Domain.t option;
}

(** Apply one batch of keyed mutations, in log order, through the
    service's own stage/await path: the replica's shard workers execute
    them exactly like client writes, so batching, SMR behaviour and
    telemetry are the production path's.  BUSY rejections are retried —
    the log stream must not drop records.  Order per key survives the
    retry: a key always routes to one shard, and what that shard's queue
    rejects is the tail of the round's share for it, so every rejected
    record comes after every accepted record of its shard and is
    resubmitted only once those have completed. *)
let apply_muts service muts =
  let batch = Service.new_batch () in
  let rec go muts =
    match muts with
    | [] -> ()
    | _ ->
        let staged =
          List.map
            (fun (kind, key) ->
              ((kind, key), Service.stage service batch kind key))
            muts
        in
        Service.await batch;
        let rejected =
          List.filter_map
            (fun (m, (item : Service.item)) -> if item.busy then Some m else None)
            staged
        in
        if rejected <> [] then begin
          Unix.sleepf 0.001;
          go rejected
        end
  in
  go muts

let stats_shards client =
  match
    Client.call_one client { Protocol.id = 0; op = Protocol.Stats }
  with
  | Ok { Protocol.body = Protocol.Stats_r vs; _ } when Array.length vs >= 2 ->
      Some vs.(1)
  | _ -> None

(* One snapshot resync of [shard]: pull the checkpoint key set in chunks
   and insert it.  If the primary checkpoints again mid-resync (the
   chunk's ckpt_seq moves), start over — chunks from different
   checkpoints must not be mixed.  Returns the sequence the snapshot
   covers. *)
let resync t client ~shard =
  let rec from_start () =
    let rec chunk ~expect_seq ~offset =
      match
        Client.call_one client
          { Protocol.id = 0; op = Protocol.Snap { shard; offset } }
      with
      | Ok { Protocol.body = Protocol.Snap_chunk_r { ckpt_seq; total; keys; _ }; _ }
        -> (
          match expect_seq with
          | Some s when s <> ckpt_seq -> from_start ()
          | _ ->
              apply_muts t.service
                (Array.to_list
                   (Array.map (fun k -> (Service.Insert, k)) keys));
              Atomic.fetch_and_add t.snap_keys (Array.length keys) |> ignore;
              let next = offset + Array.length keys in
              if next >= total || Array.length keys = 0 then Ok ckpt_seq
              else chunk ~expect_seq:(Some ckpt_seq) ~offset:next)
      | Ok { Protocol.body = b; _ } ->
          Error (Printf.sprintf "snap: unexpected %s" (Protocol.body_to_string b))
      | Error e -> Error e
    in
    chunk ~expect_seq:None ~offset:0
  in
  from_start ()

let record_mut (r : Oa_store.Record.t) =
  ( (match r.Oa_store.Record.op with
    | Oa_store.Record.Insert -> Service.Insert
    | Oa_store.Record.Delete -> Service.Delete),
    r.Oa_store.Record.key )

(* The follower loop proper, over one connection; returns [Error] to
   trigger a reconnect, [Ok ()] on requested stop. *)
let follow_conn t client nshards =
  let rec loop idle_rounds =
    if Atomic.get t.stop_flag then Ok ()
    else begin
      let progressed = ref false in
      let err = ref None in
      for shard = 0 to nshards - 1 do
        if !err = None && not (Atomic.get t.stop_flag) then begin
          let from = Atomic.get t.applied.(shard) in
          match
            Client.call_one client
              { Protocol.id = 0; op = Protocol.Fetch { shard; from } }
          with
          | Ok { Protocol.body = Protocol.Records_r { last; records }; _ } ->
              if Array.length records > 0 then begin
                apply_muts t.service
                  (Array.to_list (Array.map record_mut records));
                Atomic.fetch_and_add t.applied_records (Array.length records)
                |> ignore;
                Atomic.set t.applied.(shard)
                  records.(Array.length records - 1).Oa_store.Record.seq;
                progressed := true
              end;
              Atomic.set t.primary_last.(shard) last;
              Atomic.incr t.rounds
          | Ok { Protocol.body = Protocol.Snap_needed_r { ckpt_seq; _ }; _ }
            -> (
              match resync t client ~shard with
              | Ok seq ->
                  Atomic.set t.applied.(shard) (max seq ckpt_seq);
                  progressed := true
              | Error e -> err := Some e)
          | Ok { Protocol.body = b; _ } ->
              err :=
                Some
                  (Printf.sprintf "fetch: unexpected %s"
                     (Protocol.body_to_string b))
          | Error e -> err := Some e
        end
      done;
      match !err with
      | Some e -> Error e
      | None ->
          if !progressed then loop 0
          else begin
            Unix.sleepf t.cfg.poll_interval;
            loop (idle_rounds + 1)
          end
    end
  in
  loop 0

let follower_loop t =
  let rec run () =
    if Atomic.get t.stop_flag then ()
    else begin
      (match Client.connect ~host:t.cfg.host ~port:t.cfg.port () with
      | exception _ -> Unix.sleepf t.cfg.retry_interval
      | client ->
          (match stats_shards client with
          | exception _ -> ()
          | None -> ()
          | Some nshards ->
              if Array.length t.applied <> nshards then begin
                t.applied <- Array.init nshards (fun _ -> Atomic.make 0);
                t.primary_last <- Array.init nshards (fun _ -> Atomic.make 0)
              end;
              (match follow_conn t client nshards with
              | Ok () -> ()
              | Error _ -> Unix.sleepf t.cfg.retry_interval
              | exception _ -> Unix.sleepf t.cfg.retry_interval));
          (try Client.close client with _ -> ()));
      run ()
    end
  in
  run ()

(** Start following: spawns the follower domain.  [service] should be a
    fresh volatile service (no prefill, no data dir) fronted by a
    read-only server. *)
let start ~service cfg =
  let t =
    {
      cfg;
      service;
      stop_flag = Atomic.make false;
      applied = [||];
      primary_last = [||];
      rounds = Atomic.make 0;
      applied_records = Atomic.make 0;
      snap_keys = Atomic.make 0;
      follower = None;
    }
  in
  Service.set_replica service true;
  t.follower <- Some (Domain.spawn (fun () -> follower_loop t));
  t

let stop t =
  Atomic.set t.stop_flag true;
  match t.follower with
  | None -> ()
  | Some d ->
      t.follower <- None;
      Domain.join d

(** [(applied, primary_last)] summed over shards — equal once the
    follower has drained a quiescent primary. *)
let lag t =
  let sum a = Array.fold_left (fun acc x -> acc + Atomic.get x) 0 a in
  (sum t.applied, sum t.primary_last)

let caught_up t =
  let a, p = lag t in
  Array.length t.applied > 0 && a = p

let applied_records t = Atomic.get t.applied_records
let snap_keys t = Atomic.get t.snap_keys
let rounds t = Atomic.get t.rounds
