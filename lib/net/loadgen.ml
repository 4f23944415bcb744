(** Closed-loop multi-connection load generator.

    Each connection runs in its own domain and keeps exactly one pipelined
    batch outstanding: draw [pipeline] operations from the workload mix,
    send them in one write, wait for every response, repeat until the
    deadline.  Latency is measured per response — send timestamp recorded
    by request id, arrival timestamp taken when the response's read
    returns — and recorded into an {!Oa_obs.Histogram} per connection;
    the histograms merge associatively into the final {!Summary.t}.

    Closed-loop means offered load adapts to the server: a saturated
    server shows up as latency, not as an unbounded client-side
    backlog. *)

module H = Oa_obs.Histogram
module Clock = Oa_runtime.Clock

type config = {
  host : string;
  port : int;
  conns : int;
  pipeline : int;  (** requests in flight per connection *)
  batch : int;
      (** requests per write group: each round's [pipeline] requests are
          sent as ceil(pipeline/batch) separate writes instead of one, so
          each server-side read (and hence each round the batched
          execution path runs) sees groups of about this size; [<= 0]
          means one group of [pipeline] (the previous behaviour) *)
  duration : float;  (** seconds *)
  mix : Oa_workload.Op_mix.t;
  key_dist : Oa_workload.Key_dist.t;
  seed : int;
  ledger : string option;
      (** write an acked-write ledger to this file: one ["key 0|1"] line
          per key whose final durable presence the generator can vouch
          for.  The recovery smoke compares a restarted server against
          it (docs/persistence.md).  Ledger mode partitions the key range
          into per-connection subranges, so each connection is the sole
          writer of its keys and its per-key last-acked state is exact:
          the server preserves order within a connection, so the acked
          responses applied in arrival order give the true final state,
          and the unacked in-flight suffix is {e tainted} (excluded) —
          an unacked write may or may not have become durable, so the
          ledger claims nothing about those keys. *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7440;
    conns = 4;
    pipeline = 16;
    batch = 0;
    duration = 2.0;
    mix = Oa_workload.Op_mix.read_mostly;
    key_dist = Oa_workload.Key_dist.uniform ~range:8_000;
    seed = 42;
    ledger = None;
  }

type conn_result = {
  ops : int;  (** responses received, including BUSY *)
  ok : int;
  busy : int;
  errors : int;
  latency : H.t;
}

(* A function: histograms are mutable, so each connection (domain) must
   start from its own. *)
let empty_result () =
  { ops = 0; ok = 0; busy = 0; errors = 0; latency = H.create () }

(* One connection's closed loop.  Socket or decode failures end the loop
   early and surface as [errors]; partial counts are still reported.
   Returns the counters plus the connection's ledger state (empty tables
   outside ledger mode): per-key last-acked presence and the tainted
   keys — mutations that errored or were still unacked when the loop
   ended. *)
let run_conn cfg ~index =
  let rng = Oa_util.Splitmix.create (cfg.seed + (index * 7_919)) in
  let sent : (int, int * Protocol.op) Hashtbl.t =
    Hashtbl.create (2 * cfg.pipeline)
  in
  let next_id = ref (index * 1_000_000_000) in
  let acc = ref (empty_result ()) in
  let last : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  let taint : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let taint_pending () =
    if cfg.ledger <> None then
      Hashtbl.iter
        (fun _ (_, op) ->
          match op with
          | Protocol.Insert k | Protocol.Delete k -> Hashtbl.replace taint k ()
          | _ -> ())
        sent
  in
  let deadline = Clock.now_ns () + int_of_float (cfg.duration *. 1e9) in
  (* Ledger mode: remap draws into this connection's private subrange so
     no other connection races on our keys. *)
  let sub_width, sub_off =
    match cfg.ledger with
    | None -> (0, 0)
    | Some _ ->
        let range = Oa_workload.Key_dist.range cfg.key_dist in
        let w = max 1 (range / max 1 cfg.conns) in
        (w, index * w)
  in
  match Client.connect ~host:cfg.host ~port:cfg.port () with
  | exception Unix.Unix_error _ ->
      ({ !acc with errors = !acc.errors + 1 }, (last, taint))
  | client ->
      let make_req () =
        let key =
          let k = Oa_workload.Key_dist.draw cfg.key_dist rng in
          if sub_width = 0 then k else sub_off + 1 + ((k - 1) mod sub_width)
        in
        let op =
          match Oa_workload.Op_mix.draw cfg.mix rng with
          | Oa_workload.Op_mix.Contains -> Protocol.Get key
          | Oa_workload.Op_mix.Insert -> Protocol.Insert key
          | Oa_workload.Op_mix.Delete -> Protocol.Delete key
        in
        incr next_id;
        { Protocol.id = !next_id; op }
      in
      (* The ledger update for one acked response.  An acked INSERT means
         "present" and an acked DELETE "absent" regardless of the boolean
         (false = was already in that state); a BUSY was not executed, so
         the previous entry stands; an ERROR on a mutation leaves the
         key's state unknowable — taint it. *)
      let note_ack op body =
        if cfg.ledger <> None then
          match (op, body) with
          | Some (Protocol.Get k), Protocol.Bool b -> Hashtbl.replace last k b
          | Some (Protocol.Insert k), Protocol.Bool _ ->
              Hashtbl.replace last k true
          | Some (Protocol.Delete k), Protocol.Bool _ ->
              Hashtbl.replace last k false
          | Some (Protocol.Insert k | Protocol.Delete k), Protocol.Error_r _ ->
              Hashtbl.replace taint k ()
          | _ -> ()
      in
      let record (r : Protocol.response) arrival =
        let a = !acc in
        let lat, op =
          match Hashtbl.find_opt sent r.Protocol.rid with
          | None -> (None, None)
          | Some (t0, op) ->
              Hashtbl.remove sent r.Protocol.rid;
              (Some (max 0 (arrival - t0)), Some op)
        in
        note_ack op r.Protocol.body;
        (match r.Protocol.body with
        | Protocol.Bool _ ->
            Option.iter (H.observe a.latency) lat;
            acc := { a with ops = a.ops + 1; ok = a.ok + 1 }
        | Protocol.Busy -> acc := { a with ops = a.ops + 1; busy = a.busy + 1 }
        | Protocol.Pong | Protocol.Stats_r _ | Protocol.Records_r _
        | Protocol.Snap_needed_r _ | Protocol.Snap_chunk_r _ ->
            acc := { a with ops = a.ops + 1 }
        | Protocol.Error_r _ ->
            acc := { a with ops = a.ops + 1; errors = a.errors + 1 })
      in
      (try
         while Clock.now_ns () < deadline do
           let reqs = List.init cfg.pipeline (fun _ -> make_req ()) in
           let t0 = Clock.now_ns () in
           List.iter
             (fun (r : Protocol.request) ->
               Hashtbl.replace sent r.id (t0, r.op))
             reqs;
           (* Send in groups of [batch] so each server read — and so
              its batched execution path — sees groups of about that
              size; one write of the whole pipeline otherwise. *)
           let group = if cfg.batch <= 0 then cfg.pipeline else cfg.batch in
           let rec send_groups = function
             | [] -> ()
             | reqs ->
                 let rec take n acc = function
                   | rest when n = 0 -> (List.rev acc, rest)
                   | [] -> (List.rev acc, [])
                   | r :: rest -> take (n - 1) (r :: acc) rest
                 in
                 let g, rest = take group [] reqs in
                 Client.send client g;
                 send_groups rest
           in
           send_groups reqs;
           (* Collect all [pipeline] responses, stamping each read's
              arrivals as they come in rather than once per batch. *)
           let remaining = ref cfg.pipeline in
           while !remaining > 0 do
             match Client.recv client !remaining with
             | Ok rs ->
                 let arrival = Clock.now_ns () in
                 List.iter (fun r -> record r arrival) rs;
                 remaining := !remaining - List.length rs
             | Error _ ->
                 acc := { !acc with errors = !acc.errors + 1 };
                 raise Exit
           done
         done
       with
      | Exit -> ()
      | Unix.Unix_error _ -> acc := { !acc with errors = !acc.errors + 1 });
      Client.close client;
      (* Whatever is still in [sent] was never acked: by per-connection
         FIFO it is exactly the trailing suffix, and its mutations may or
         may not have landed — taint them. *)
      taint_pending ();
      (!acc, (last, taint))

(* Ask the server who it is; [None] if unreachable. *)
let probe cfg =
  match Client.connect ~host:cfg.host ~port:cfg.port () with
  | exception Unix.Unix_error _ -> None
  | client ->
      let r =
        match Client.call_one client { Protocol.id = 0; op = Protocol.Stats } with
        | Ok { Protocol.body = Protocol.Stats_r vs; _ } -> Some vs
        | Ok _ | Error _ -> None
      in
      Client.close client;
      r

(** Run the full load generation: probe, fan out [cfg.conns] connection
    domains, merge.  Returns [Error] if the server cannot be reached. *)
let run cfg =
  match probe cfg with
  | None ->
      Error
        (Printf.sprintf "cannot reach server at %s:%d" cfg.host cfg.port)
  | Some stats ->
      let t0 = Clock.now_ns () in
      let domains =
        List.init cfg.conns (fun i ->
            Domain.spawn (fun () -> run_conn cfg ~index:i))
      in
      let pairs = List.map Domain.join domains in
      let results = List.map fst pairs in
      let elapsed = Clock.elapsed_s ~since:t0 in
      (* Ledger mode: merge the per-connection tables (disjoint subranges,
         so a plain concatenation) into ["key present"] lines, dropping
         tainted keys. *)
      (match cfg.ledger with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          List.iter
            (fun (_, (last, taint)) ->
              Hashtbl.iter
                (fun k present ->
                  if not (Hashtbl.mem taint k) then
                    Printf.fprintf oc "%d %d\n" k (if present then 1 else 0))
                last)
            pairs;
          close_out oc);
      (* Re-probe after the run so the memory gauges describe the server
         at end of load rather than before it; fall back to the opening
         probe if the server is already gone. *)
      let stats =
        match probe cfg with Some s -> s | None -> stats
      in
      let merged =
        List.fold_left
          (fun a r ->
            {
              ops = a.ops + r.ops;
              ok = a.ok + r.ok;
              busy = a.busy + r.busy;
              errors = a.errors + r.errors;
              latency = H.merge a.latency r.latency;
            })
          (empty_result ()) results
      in
      let scheme, shards, workers_per_shard =
        match Service.scheme_of_stats_payload stats with
        | Some s -> (Oa_smr.Schemes.id_name s, stats.(1), stats.(2))
        | None -> ("unknown", 0, 0)
      in
      Ok
        {
          Summary.scheme;
          shards;
          workers_per_shard;
          conns = cfg.conns;
          pipeline = cfg.pipeline;
          batch = (if cfg.batch <= 0 then cfg.pipeline else cfg.batch);
          server_batch = (if Array.length stats >= 8 then stats.(7) else 0);
          elapsed;
          ops = merged.ops;
          ok = merged.ok;
          busy = merged.busy;
          errors = merged.errors;
          latency = merged.latency;
          chunks_live = (if Array.length stats >= 9 then stats.(8) else 0);
          rss_bytes = (if Array.length stats >= 10 then stats.(9) else 0);
        }
