(* Loopback integration: the full stack — protocol, connection handlers,
   sharded service, SMR scheme, graceful shutdown — against a sequential
   model.

   Each concurrent client owns a disjoint key range, so its operations on
   its own keys are totally ordered (one connection, whose rounds run in
   order and each shard's share in submission order)
   and every response must match a sequential replay: GET k = presence,
   INSERT k succeeds iff absent, DELETE k succeeds iff present.  A final
   single-client sweep checks the surviving state key by key, a pipelined
   batch is in flight while shutdown begins to exercise the drain path,
   and the post-drain report must show conservation (no reclaim without a
   matching retire) plus structural validity.  Run for OA, HP and EBR —
   the schemes whose reclamation actually runs under load. *)

module P = Oa_net.Protocol
module Sv = Oa_net.Service
module Srv = Oa_net.Server
module C = Oa_net.Client
module Schemes = Oa_smr.Schemes

let keys_per_client = 150
let n_clients = 3
let ops_per_client = 400
let key_range = n_clients * keys_per_client

let connect port = C.connect ~port ()

let get_ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "client error: %s" msg

(* GET every key in [lo..hi]; returns the presence bitmap. *)
let sweep client ~lo ~hi =
  let present = Array.make (hi - lo + 1) false in
  let reqs =
    List.init (hi - lo + 1) (fun i -> { P.id = lo + i; op = P.Get (lo + i) })
  in
  let resps = get_ok (C.call client reqs) in
  List.iter
    (fun (r : P.response) ->
      match r.body with
      | P.Bool b -> present.(r.rid - lo) <- b
      | P.Busy -> Alcotest.fail "sweep rejected as BUSY"
      | b -> Alcotest.failf "sweep: unexpected %s" (P.body_to_string b))
    resps;
  present

(* One client's workload over its private keys, checked op by op against
   the sequential model seeded from the server's own prefill state. *)
let run_client ~port ~index ~model =
  let lo = (index * keys_per_client) + 1 in
  let rng = Oa_util.Splitmix.create (1000 + index) in
  let client = connect port in
  let mix = Oa_workload.Op_mix.mutation_40 in
  let pipeline = 16 in
  let ops = ref [] in
  for _ = 1 to ops_per_client / pipeline do
    let reqs =
      List.init pipeline (fun i ->
          let key = lo + Oa_util.Splitmix.below rng keys_per_client in
          let op =
            match Oa_workload.Op_mix.draw mix rng with
            | Oa_workload.Op_mix.Contains -> P.Get key
            | Oa_workload.Op_mix.Insert -> P.Insert key
            | Oa_workload.Op_mix.Delete -> P.Delete key
          in
          { P.id = (index * 1_000_000) + List.length !ops + i; op })
    in
    ops := List.rev_append reqs !ops;
    let resps = get_ok (C.call client reqs) in
    let by_id = Hashtbl.create pipeline in
    List.iter (fun (r : P.response) -> Hashtbl.replace by_id r.rid r.body) resps;
    (* replay in submission order against the model *)
    List.iter
      (fun (req : P.request) ->
        let body =
          match Hashtbl.find_opt by_id req.id with
          | Some b -> b
          | None -> Alcotest.failf "no response for id %d" req.id
        in
        let key, expect, update =
          match req.op with
          | P.Get k -> (k, model.(k - 1), fun () -> ())
          | P.Insert k -> (k, not model.(k - 1), fun () -> model.(k - 1) <- true)
          | P.Delete k -> (k, model.(k - 1), fun () -> model.(k - 1) <- false)
          | P.Stats | P.Ping | P.Fetch _ | P.Snap _ -> assert false
        in
        match body with
        | P.Bool b ->
            if b <> expect then
              Alcotest.failf "key %d: %s returned %b, model says %b" key
                (P.op_to_string req.op) b expect;
            if b then update ()
        | P.Busy -> () (* rejected, not executed: model unchanged *)
        | b -> Alcotest.failf "unexpected %s" (P.body_to_string b))
      reqs
  done;
  C.close client

let run_stack ?(dequeue_batch = 16) scheme =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg =
    {
      Sv.default_config with
      Sv.scheme;
      shards = 2;
      workers_per_shard = 1;
      prefill = key_range / 2;
      key_range;
      delta = 4_000;
      dequeue_batch;
    }
  in
  let service = Sv.create cfg in
  Sv.start service;
  let server = Srv.create ~port:0 ~service () in
  let port = Srv.port server in
  let serving = Domain.spawn (fun () -> Srv.serve server) in

  (* 1. seed the model from the server's own prefill *)
  let c0 = connect port in
  let model = sweep c0 ~lo:1 ~hi:key_range in
  (match get_ok (C.call_one c0 { P.id = 9; op = P.Ping }) with
  | { P.body = P.Pong; rid = 9 } -> ()
  | r -> Alcotest.failf "ping: %s" (P.body_to_string r.P.body));
  (match get_ok (C.call_one c0 { P.id = 8; op = P.Stats }) with
  | { P.body = P.Stats_r vs; _ } ->
      Alcotest.(check (option string))
        "STATS reports the serving scheme"
        (Some (Schemes.id_name scheme))
        (Option.map Schemes.id_name (Sv.scheme_of_stats_payload vs))
  | r -> Alcotest.failf "stats: %s" (P.body_to_string r.P.body));
  C.close c0;

  (* 2. concurrent clients on disjoint key ranges *)
  let clients =
    List.init n_clients (fun index ->
        Domain.spawn (fun () -> run_client ~port ~index ~model))
  in
  List.iter Domain.join clients;

  (* 3. quiescent sweep: surviving state = sequential model, key by key *)
  let c1 = connect port in
  let final = sweep c1 ~lo:1 ~hi:key_range in
  Array.iteri
    (fun i expected ->
      if final.(i) <> expected then
        Alcotest.failf "final state: key %d is %b, model says %b" (i + 1)
          final.(i) expected)
    model;

  (* 4. shutdown with a pipelined batch in flight: the handler finishes
     the batch it read — all responses arrive, then a clean EOF *)
  let in_flight =
    List.init 32 (fun i -> { P.id = 5_000_000 + i; op = P.Get ((i mod key_range) + 1) })
  in
  C.send c1 in_flight;
  (* loopback write has landed in the server's receive queue; give the
     handler a beat, then begin the shutdown with the batch in flight *)
  Unix.sleepf 0.05;
  Srv.shutdown server;
  (match C.recv c1 (List.length in_flight) with
  | Ok resps ->
      Alcotest.(check int)
        "in-flight batch drained" (List.length in_flight) (List.length resps)
  | Error msg -> Alcotest.failf "in-flight batch lost: %s" msg);
  C.close c1;
  Domain.join serving;

  (* 5. post-drain report: conservation and structural validity *)
  let r = Sv.drain_report service in
  if not r.Sv.conservation_ok then
    Alcotest.failf "conservation violated: %s"
      (Format.asprintf "%a" Sv.pp_report r);
  (match r.Sv.validation with
  | Ok () -> ()
  | Error e -> Alcotest.failf "structure validation: %s" e);
  let model_size = Array.fold_left (fun n b -> if b then n + 1 else n) 0 model in
  Alcotest.(check int)
    "table size = model cardinality" model_size
    (Array.fold_left ( + ) 0 r.Sv.sizes);
  (* every accepted request was executed before the service stopped *)
  let sink = Sv.sink service in
  Alcotest.(check int)
    "Req_enq = Req_done after drain"
    (Oa_obs.Sink.total sink Oa_obs.Event.Req_enq)
    (Oa_obs.Sink.total sink Oa_obs.Event.Req_done);
  Alcotest.(check bool) "no exec errors" true (r.Sv.exec_errors = 0);
  (* A share of two or more requests runs through the scheme's batched
     path, which records its amortisation histogram; with pipelined
     clients against 2 shards, such shares are guaranteed.  Per-op
     servers must never touch it. *)
  let batched_ops =
    match
      Oa_obs.Snapshot.find_hist (Oa_obs.Sink.snapshot sink)
        "op_batch_amortized"
    with
    | Some h -> Oa_obs.Histogram.count h
    | None -> 0
  in
  if dequeue_batch > 1 then
    Alcotest.(check bool) "batched path exercised" true (batched_ops > 0)
  else Alcotest.(check int) "per-op server never batches" 0 batched_ops

(* Shutdown while clients are still submitting: the drain must finish the
   batches the handlers already read, release the loaders with a clean
   EOF or connection error (never a hang), and the post-drain report must
   still show reclamation conservation and a structurally valid table. *)
let run_drain_under_load scheme =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg =
    {
      Sv.default_config with
      Sv.scheme;
      shards = 2;
      workers_per_shard = 1;
      prefill = key_range / 2;
      key_range;
      delta = 4_000;
      dequeue_batch = 16;
    }
  in
  let service = Sv.create cfg in
  Sv.start service;
  let server = Srv.create ~port:0 ~service () in
  let port = Srv.port server in
  let serving = Domain.spawn (fun () -> Srv.serve server) in
  let stop = Atomic.make false in
  let loaders =
    List.init n_clients (fun index ->
        Domain.spawn (fun () ->
            let rng = Oa_util.Splitmix.create (7000 + index) in
            let mix = Oa_workload.Op_mix.mutation_40 in
            try
              let client = connect port in
              let n = ref 0 in
              while not (Atomic.get stop) do
                let reqs =
                  List.init 16 (fun i ->
                      let key = 1 + Oa_util.Splitmix.below rng key_range in
                      let op =
                        match Oa_workload.Op_mix.draw mix rng with
                        | Oa_workload.Op_mix.Contains -> P.Get key
                        | Oa_workload.Op_mix.Insert -> P.Insert key
                        | Oa_workload.Op_mix.Delete -> P.Delete key
                      in
                      { P.id = !n + i; op })
                in
                n := !n + 16;
                match C.call client reqs with
                | Ok _ -> ()
                | Error _ ->
                    (* server went away mid-call: drain has begun *)
                    Atomic.set stop true
              done;
              try C.close client with _ -> ()
            with _ -> Atomic.set stop true))
  in
  (* let the load build, then pull the plug under it *)
  Unix.sleepf 0.2;
  Srv.shutdown server;
  Atomic.set stop true;
  List.iter Domain.join loaders;
  Domain.join serving;
  let r = Sv.drain_report service in
  if not r.Sv.conservation_ok then
    Alcotest.failf "conservation violated under drain: %s"
      (Format.asprintf "%a" Sv.pp_report r);
  (match r.Sv.validation with
  | Ok () -> ()
  | Error e -> Alcotest.failf "structure validation: %s" e);
  let sink = Sv.sink service in
  Alcotest.(check int)
    "Req_enq = Req_done after drain"
    (Oa_obs.Sink.total sink Oa_obs.Event.Req_enq)
    (Oa_obs.Sink.total sink Oa_obs.Event.Req_done);
  Alcotest.(check bool) "no exec errors" true (r.Sv.exec_errors = 0)

(* Start a service, serve one insert/get/delete round on a key outside
   the prefill range, drain, and check conservation. *)
let serve_round (cfg : Sv.config) =
  let service = Sv.create cfg in
  Sv.start service;
  let key = cfg.Sv.key_range + 7 in
  let expect what want got =
    match got with
    | Sv.Done b when b = want -> ()
    | _ -> Alcotest.failf "%s: unexpected reply" what
  in
  expect "insert" true (Sv.call service Sv.Insert key);
  expect "get" true (Sv.call service Sv.Get key);
  expect "delete" true (Sv.call service Sv.Delete key);
  Sv.stop service;
  let r = Sv.drain_report service in
  Alcotest.(check bool) "conservation" true r.Sv.conservation_ok;
  r

(* A fixed shard whose node budget is far past the backend's default flat
   reservation (2^27 words) still starts and serves: make_shard reserves
   its own budget.  With [prefill = 0] no node page is touched — the
   reservation is NORESERVE and committed lazily — so the 200M-node
   budget costs address space, not memory. *)
let run_oversized_budget () =
  let r =
    serve_round
      { Sv.default_config with Sv.shards = 1; prefill = 0; delta = 200_000_000 }
  in
  Alcotest.(check bool) "heap gauge read" true (r.Sv.heap_bytes > 0);
  (* the drain report puts the OCaml heap between committed and rss *)
  let line = Format.asprintf "%a" Sv.pp_report r in
  let pos sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length line then
        Alcotest.failf "%S missing from %S" sub line
      else if String.sub line i n = sub then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "committed= heap= rss= in order" true
    (pos " committed=" < pos " heap=" && pos " heap=" < pos " rss=")

(* RC carves two per-node side tables (counters and flags, a line per
   node each) from the same flat arena as the table's nodes.  A shard of
   a large node budget — here 25 000 expected keys and the delta, beside
   65 536 bucket heads — needs them to fit too. *)
let run_rc_side_tables () =
  ignore
    (serve_round
       {
         Sv.default_config with
         Sv.scheme = Schemes.Ref_counting;
         shards = 1;
         prefill = 25_000;
         key_range = 50_000;
       })

(* kv_read_large's shape: 2 shards, 500 000 keys prefilled.  The
   committed gauge is each shard's arena — bump_used nodes of the
   backend's node stride each, 16 bytes for a list node — plus its bucket
   heads, one word per bucket.  bump_used is the prefill's nodes rounded
   up to the allocator's chunk grain, so it lies within a chunk or two
   per shard of the key count. *)
let run_committed_gauge () =
  let cfg =
    {
      Sv.default_config with
      Sv.shards = 2;
      prefill = 500_000;
      key_range = 1_000_000;
      delta = 50_000;
    }
  in
  let t = Sv.create cfg in
  let n_buckets =
    Oa_structures.Hash_table.bucket_count
      ~expected_size:(cfg.Sv.prefill / cfg.Sv.shards)
  in
  let heads = cfg.Sv.shards * n_buckets * 8 in
  let committed = Sv.mem_gauge t "mem_committed_bytes" in
  let node_bytes =
    8 * Oa_runtime.Real_backend.node_stride ~nodes:cfg.Sv.prefill ~fields:2
  in
  Alcotest.(check int) "16-byte list nodes" 16 node_bytes;
  let nodes = (committed - heads) / node_bytes in
  Alcotest.(check int) "whole nodes past the heads" 0
    ((committed - heads) mod node_bytes);
  if nodes < cfg.Sv.prefill
     || nodes > cfg.Sv.prefill + (2 * cfg.Sv.shards * cfg.Sv.chunk_size)
  then
    Alcotest.failf "committed %d B = %d nodes + %d B of heads" committed
      nodes heads

(* The elastic arena ([serve --elastic]): shards on Oa_alloc chunks
   instead of a fixed reservation answer every call as the sequential
   model does, and drain to a valid table with conservation intact. *)
let run_elastic scheme () =
  let key_range = 256 in
  let service =
    Sv.create
      {
        Sv.default_config with
        Sv.scheme;
        shards = 2;
        prefill = 0;
        key_range;
        elastic = true;
      }
  in
  Sv.start service;
  let model = Array.make (key_range + 1) false in
  let rng = Oa_util.Splitmix.create 5 in
  for _ = 1 to 3_000 do
    let key = 1 + Oa_util.Splitmix.below rng key_range in
    let kind, want, after =
      match Oa_util.Splitmix.below rng 3 with
      | 0 -> (Sv.Get, model.(key), model.(key))
      | 1 -> (Sv.Insert, not model.(key), true)
      | _ -> (Sv.Delete, model.(key), false)
    in
    (match Sv.call service kind key with
    | Sv.Done got when got = want -> ()
    | Sv.Done _ -> Alcotest.failf "key %d: reply diverges from the model" key
    | Sv.Rejected | Sv.Failed -> Alcotest.failf "key %d: not executed" key);
    model.(key) <- after
  done;
  Sv.stop service;
  let r = Sv.drain_report service in
  (match r.Sv.validation with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validation: %s" e);
  Alcotest.(check bool) "conservation" true r.Sv.conservation_ok;
  Alcotest.(check bool) "deletes retired nodes" true (r.Sv.retired > 0);
  Alcotest.(check (array int))
    "contents = model"
    (Array.of_list (List.filter (fun k -> model.(k)) (List.init key_range succ)))
    (Sv.contents service)

(* --- a failing store --- *)

let rm_rf dir =
  let rec go path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> go (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
    | _ -> Unix.unlink path
  in
  go dir

(* Run [f] on its own domain and fail if it has not returned within
   [seconds]: a hang is this test's failure mode, and a blocked [call]
   cannot be interrupted from inside. *)
let within ~seconds f =
  let outcome = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set outcome (Some (try Ok (f ()) with e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get outcome with
    | Some (Ok ()) -> Domain.join d
    | Some (Error e) ->
        Domain.join d;
        raise e
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "still blocked after %.0f s" seconds;
        Unix.sleepf 0.01;
        wait ()
  in
  wait ()

(* The shard directory of a durable one-shard service vanishes.  Appends
   would still land in the open (now unlinked) segment; what fails is
   the rotation that creates the next one.  The service is filled to one
   record short of a rotation first, so the very first mutation after the
   removal fails.  That mutation and every later one must be answered
   [Failed] — the shard turns read-only — while gets are still served, and
   [stop] must return, skipping the checkpoint it can no longer write. *)
let run_store_failure () =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "oa-test-server-%d" (Unix.getpid ()))
  in
  let data_dir = Filename.concat root "data" in
  let segment_bytes = 512 in
  rm_rf root;
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  within ~seconds:30. @@ fun () ->
  let service =
    Sv.create
      {
        Sv.default_config with
        Sv.shards = 1;
        prefill = 0;
        key_range = 4_096;
        data_dir = Some data_dir;
        segment_bytes;
      }
  in
  Sv.start service;
  let call kind key = Sv.call service kind key in
  (* one effective insert per call appends one record; the append that
     brings a segment to [segment_bytes] rotates *)
  let per_segment =
    (segment_bytes + Oa_store.Record.frame_len - 1) / Oa_store.Record.frame_len
  in
  for k = 1 to per_segment - 1 do
    if call Sv.Insert k <> Sv.Done true then
      Alcotest.failf "insert %d before the removal" k
  done;
  rm_rf data_dir;
  for k = per_segment to per_segment + 50 do
    if call Sv.Insert k <> Sv.Failed then
      Alcotest.failf "insert %d not answered Failed" k;
    if call Sv.Delete 1 <> Sv.Failed then
      Alcotest.fail "delete not answered Failed"
  done;
  Alcotest.(check bool) "get still served" true (call Sv.Get 1 = Sv.Done true);
  Alcotest.(check bool)
    "refused insert never ran" true
    (call Sv.Get (per_segment + 1) = Sv.Done false);
  Sv.stop service;
  (match Sv.store_errors service with
  | [ (0, _) ] -> ()
  | _ -> Alcotest.fail "shard 0 not reported read-only");
  let r = Sv.drain_report service in
  Alcotest.(check int) "failures counted" 102 r.Sv.exec_errors;
  Alcotest.(check int) "no checkpoint written" 0 r.Sv.checkpoints

(* --- shared keys through borrowed contexts --- *)

(* [domains] domains each run [rounds] stage/await rounds of 32
   operations over keys 1..64 of [service]; returns the net number of
   keys their acked inserts and deletes added. *)
let race service ~domains ~rounds =
  let one d =
    Domain.spawn (fun () ->
        let rng = Oa_util.Splitmix.create (77 + d) in
        let b = Sv.new_batch () in
        let net = ref 0 in
        for _ = 1 to rounds do
          let items =
            Array.init 32 (fun _ ->
                let key = 1 + Oa_util.Splitmix.below rng 64 in
                let kind =
                  match Oa_util.Splitmix.below rng 3 with
                  | 0 -> Sv.Get
                  | 1 -> Sv.Insert
                  | _ -> Sv.Delete
                in
                Sv.stage service b kind key)
          in
          Sv.await b;
          Array.iter
            (fun (it : Sv.item) ->
              if it.busy || it.failed then
                Alcotest.fail "operation not executed";
              match it.kind with
              | Sv.Insert when it.result -> incr net
              | Sv.Delete when it.result -> decr net
              | _ -> ())
            items
        done;
        !net)
  in
  List.fold_left ( + ) 0 (List.map Domain.join (List.init domains one))

(* One shard, two contexts, four domains on the same 64 keys: shares
   borrow a free context or wait for one.  Every acked insert and delete
   must account for the final size, the table must validate, and OA's
   final pass must reclaim every node retired. *)
let run_shared_volatile () =
  within ~seconds:60. @@ fun () ->
  let service =
    Sv.create
      {
        Sv.default_config with
        Sv.shards = 1;
        workers_per_shard = 2;
        prefill = 0;
        key_range = 64;
      }
  in
  let net = race service ~domains:4 ~rounds:2_000 in
  Sv.stop service;
  let r = Sv.drain_report service in
  (match r.Sv.validation with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validation: %s" e);
  Alcotest.(check bool) "conservation" true r.Sv.conservation_ok;
  Alcotest.(check int) "size = acked inserts - acked deletes" net
    (Array.length (Sv.contents service));
  Alcotest.(check bool) "deletes retired nodes" true (r.Sv.retired > 0);
  Alcotest.(check int) "retired = reclaimed" r.Sv.retired r.Sv.reclaimed

(* Hazard pointers drain completely: two shards of two contexts each,
   four domains on the same 64 keys, half of them prefilled.  A read
   slot keeps publishing the last node its context read after the
   operation ends, and the prefill's registrations published nodes the
   contexts later delete; [stop] must still reclaim every node retired. *)
let run_shared_hp () =
  within ~seconds:60. @@ fun () ->
  let prefill = 32 in
  let service =
    Sv.create
      {
        Sv.default_config with
        Sv.scheme = Schemes.Hazard_pointers;
        shards = 2;
        workers_per_shard = 2;
        prefill;
        key_range = 64;
      }
  in
  let net = race service ~domains:4 ~rounds:1_000 in
  Sv.stop service;
  let r = Sv.drain_report service in
  (match r.Sv.validation with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validation: %s" e);
  Alcotest.(check bool) "conservation" true r.Sv.conservation_ok;
  Alcotest.(check int) "size = prefill + acked inserts - acked deletes"
    (prefill + net)
    (Array.length (Sv.contents service));
  Alcotest.(check bool) "deletes retired nodes" true (r.Sv.retired > 0);
  Alcotest.(check int) "retired = reclaimed" r.Sv.retired r.Sv.reclaimed

(* One durable shard, two domains on the same 64 keys.  Once they have
   joined, the shard directory is copied — before [stop], which would
   checkpoint it — and the copy recovered: replaying the log in append
   order must rebuild exactly the live table, so the log order is the
   execution order. *)
let run_shared_durable () =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "oa-test-shared-%d" (Unix.getpid ()))
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> rm_rf root) @@ fun () ->
  within ~seconds:60. @@ fun () ->
  let cfg data_dir =
    {
      Sv.default_config with
      Sv.shards = 1;
      prefill = 0;
      key_range = 64;
      data_dir = Some data_dir;
      segment_bytes = 4_096;
      ckpt_every = 500;
    }
  in
  let live_dir = Filename.concat root "live" in
  let copy_dir = Filename.concat root "copy" in
  let service = Sv.create (cfg live_dir) in
  ignore (race service ~domains:2 ~rounds:300);
  let live = Sv.contents service in
  let from = Oa_store.Shard_store.shard_dir ~data_dir:live_dir 0 in
  let into = Oa_store.Shard_store.shard_dir ~data_dir:copy_dir 0 in
  Unix.mkdir copy_dir 0o755;
  Unix.mkdir into 0o755;
  Array.iter
    (fun name ->
      let ic = open_in_bin (Filename.concat from name) in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat into name) in
      output_string oc data;
      close_out oc)
    (Sys.readdir from);
  Sv.stop service;
  let recovered = Sv.create { (cfg copy_dir) with Sv.prefill = 0 } in
  Alcotest.(check bool) "the log holds records" true
    (Sv.recovered_records recovered + Sv.recovered_ckpt_keys recovered > 0);
  Alcotest.(check (array int)) "recovered = live" live (Sv.contents recovered);
  Sv.stop recovered

(* --- the round handoff --- *)

let small_service ?(shards = 1) ?(workers = 1) ?(dequeue_batch = 64) () =
  Sv.create
    {
      Sv.default_config with
      Sv.shards;
      workers_per_shard = workers;
      prefill = 0;
      key_range = 64;
      dequeue_batch;
    }

(* The replica applies the primary's log through apply_muts, one round
   per batch of records.  Each trial stages, on shard 0, two flips and
   then an insert of [c]; then a run of records for shard 1; then the
   delete of [c].  Shares run in chunks of 2 on two contexts per shard
   while another domain keeps both shards' contexts busy with reads, so
   shares both borrow at once and wait.  The replica must end each trial
   with exactly what applying the records one by one leaves. *)
let run_replica_order () =
  let service = small_service ~shards:2 ~workers:2 ~dequeue_batch:2 () in
  let on_shard s n =
    let rec go k acc n =
      if n = 0 then List.rev acc
      else if Sv.shard_index ~shards:2 k = s then go (k + 1) (k :: acc) (n - 1)
      else go (k + 1) acc n
    in
    go 1 [] n
  in
  let x, y, c =
    match on_shard 0 3 with [ x; y; c ] -> (x, y, c) | _ -> assert false
  in
  let fillers = on_shard 1 20 in
  let reading = Atomic.make true in
  let reader =
    Domain.spawn (fun () ->
        let b = Sv.new_batch () in
        while Atomic.get reading do
          for k = 1 to 64 do
            ignore (Sv.stage service b Sv.Get k)
          done;
          Sv.await b
        done)
  in
  let model = Hashtbl.create 32 in
  for trial = 1 to 200 do
    let flip k = if trial mod 2 = 0 then (Sv.Insert, k) else (Sv.Delete, k) in
    let muts =
      [ flip x; flip y; (Sv.Insert, c) ]
      @ List.concat (List.init 5 (fun _ -> List.map flip fillers))
      @ [ (Sv.Delete, c) ]
    in
    List.iter (fun (kind, k) -> Hashtbl.replace model k (kind = Sv.Insert)) muts;
    Oa_net.Repl.apply_muts service muts;
    Hashtbl.iter
      (fun k present ->
        match Sv.call service Sv.Get k with
        | Sv.Done b ->
            Alcotest.(check bool) (Printf.sprintf "trial %d: key %d" trial k)
              present b
        | _ -> Alcotest.failf "get %d not served" k)
      model
  done;
  Atomic.set reading false;
  Domain.join reader;
  Sv.stop service

(* With a cap of 2, a third concurrent connection is answered with one
   BUSY frame and closed; once a connection leaves, a new one is
   served. *)
let run_conn_cap () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let service = small_service () in
  let server = Srv.create ~port:0 ~max_conns:2 ~service () in
  let port = Srv.port server in
  let serving = Domain.spawn (fun () -> Srv.serve server) in
  let ping client =
    match C.call_one client { P.id = 3; op = P.Ping } with
    | Ok { P.body = P.Pong; _ } -> true
    | _ -> false
  in
  let c1 = connect port and c2 = connect port in
  Alcotest.(check bool) "first served" true (ping c1);
  Alcotest.(check bool) "second served" true (ping c2);
  let c3 = connect port in
  (match C.recv c3 1 with
  | Ok [ { P.rid = 0; body = P.Busy } ] -> ()
  | Ok rs ->
      Alcotest.failf "past the cap: %s"
        (String.concat "," (List.map (fun r -> P.body_to_string r.P.body) rs))
  | Error e -> Alcotest.failf "past the cap: no BUSY frame (%s)" e);
  Alcotest.(check bool) "then closed" true (Result.is_error (C.recv c3 1));
  C.close c3;
  C.close c1;
  (* c1's handler exits asynchronously: retry until its slot is free *)
  let rec retry n =
    let c = connect port in
    if ping c then c
    else begin
      C.close c;
      if n = 0 then Alcotest.fail "no slot freed after a connection left";
      Unix.sleepf 0.01;
      retry (n - 1)
    end
  in
  let c4 = retry 200 in
  Alcotest.(check bool) "the survivor still served" true (ping c2);
  C.close c4;
  C.close c2;
  Srv.shutdown server;
  Domain.join serving

let case ?dequeue_batch name scheme =
  Alcotest.test_case name `Quick (fun () -> run_stack ?dequeue_batch scheme)

let drain_case scheme =
  Alcotest.test_case (Schemes.id_name scheme) `Quick (fun () ->
      run_drain_under_load scheme)

let () =
  Alcotest.run "server"
    [
      ( "loopback",
        [
          case (Schemes.id_name Schemes.Optimistic_access)
            Schemes.Optimistic_access;
          case (Schemes.id_name Schemes.Hazard_pointers)
            Schemes.Hazard_pointers;
          case (Schemes.id_name Schemes.Epoch_based) Schemes.Epoch_based;
          (* same stack, batching disabled: the differential control *)
          case ~dequeue_batch:1 "OA per-op" Schemes.Optimistic_access;
        ] );
      ( "drain under load",
        [
          drain_case Schemes.Optimistic_access;
          drain_case Schemes.Hazard_pointers;
          drain_case Schemes.Epoch_based;
        ] );
      ( "handoff",
        [
          Alcotest.test_case "replica keeps per-key order under contention"
            `Quick run_replica_order;
          Alcotest.test_case "connection past the cap gets BUSY" `Quick
            run_conn_cap;
        ] );
      ( "resources",
        [
          Alcotest.test_case "shard budget past the default reservation"
            `Quick run_oversized_budget;
          Alcotest.test_case "RC side tables past 65 536 nodes" `Quick
            run_rc_side_tables;
          Alcotest.test_case "committed gauge counts bucket heads" `Quick
            run_committed_gauge;
        ] );
      ( "shared keys",
        [
          Alcotest.test_case "volatile: two contexts, four domains" `Quick
            run_shared_volatile;
          Alcotest.test_case "HP: two shards, four domains, nothing left"
            `Quick run_shared_hp;
          Alcotest.test_case "durable: log order is execution order" `Quick
            run_shared_durable;
        ] );
      ( "store failure",
        [
          Alcotest.test_case "lost shard directory turns the shard read-only"
            `Quick run_store_failure;
        ] );
      ( "elastic",
        List.map
          (fun scheme ->
            Alcotest.test_case (Schemes.id_name scheme) `Quick
              (run_elastic scheme))
          [
            Schemes.Optimistic_access;
            Schemes.Hazard_pointers;
            Schemes.Epoch_based;
          ] );
    ]
