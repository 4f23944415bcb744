(** The traced run: one span per layer boundary, recorded by the bench
    around public calls into each layer, and the self time of each layer
    by subtraction.

    1. [client.round]: the live closed loop against [serve --metrics],
       one span per pipelined round in every other window (the windows in
       between measure the same loop untraced: [trace.overhead_pct]).
    2. [service.round]: the same rounds replayed in this process through
       {!Oa_net.Service.submit}/[await] — no sockets.
    3. [hash_table.group] (and, for the durable workload, [store.append] /
       [store.sync]): each shard's share of every round replayed through
       the shard's batched path ([Hash_table.run_batch_keyed] via
       [worker_ops.exec_batch]) on a table built by
       {!Oa_net.Service.make_shard}, one domain per shard.
    4. The protocol codec timed over the same frames.

    core_update has no server: its traced run ({!core}) times its own
    per-operation calls and reads the same SMR and allocator counters.

    Replays regenerate the rounds from the seed; nothing is stored but
    the spans.  Self times are differences of mean span durations over
    the rounds traced in every layer: [net.self] = client.round -
    service.round; [service.self] = service.round - the slowest shard's
    group (+ append + sync).  The replays are separate runs, so where one
    is slower on average than the live layer above it the difference is
    clamped to 0 and the excess shows up, negative, as
    [unattributed_us]. *)

module Sv = Oa_net.Service
module P = Oa_net.Protocol
module W = Workload
module L = Load
module R = Report
module Clock = Oa_runtime.Clock
module Store = Oa_store.Shard_store

let lanes = 2
let pipeline = 128

(** Rounds to replay per lane, from the live closed loop. *)
type live = {
  first : int array;  (** first round after the warm-up *)
  rounds : int array;
  traced : bool array array;  (** [traced.(lane).(round)] *)
}

let id ~lane ~round = (lane * 1_000_000_000) + round

let live_of (rs : L.closed_result list) =
  let rs = Array.of_list rs in
  let traced =
    Array.map
      (fun (r : L.closed_result) ->
        let a = Array.make r.L.rounds false in
        for i = 0 to (L.Ibuf.length r.L.spans / 3) - 1 do
          a.(L.Ibuf.get r.L.spans (3 * i)) <- true
        done;
        a)
      rs
  in
  {
    first = Array.map (fun (r : L.closed_result) -> r.L.first) rs;
    rounds = Array.map (fun (r : L.closed_result) -> r.L.rounds) rs;
    traced;
  }

(* The lane's generator positioned at round [live.first.(lane)]. *)
let regen w ~seed live lane =
  let g = W.gen w ~seed W.Closed ~lane ~lanes in
  for _ = 1 to live.first.(lane) * pipeline do
    W.next g
  done;
  g

let par n f = Array.of_list (L.par n f)

(** Spans keyed by round id: id -> duration (ns). *)
let table_of_spans buf =
  let h = Hashtbl.create 4096 in
  for i = 0 to (L.Ibuf.length buf / 3) - 1 do
    Hashtbl.replace h (L.Ibuf.get buf (3 * i)) (L.Ibuf.get buf ((3 * i) + 2) - L.Ibuf.get buf ((3 * i) + 1))
  done;
  h

(* --- step 2: the service, without sockets --- *)

let service_replay (w : W.t) ~seed ~data_dir live =
  let svc = Sv.create (W.service_config w ~data_dir) in
  Sv.start svc;
  let model = W.Model.create w.keys in
  let run lane =
    let t = L.tally () and spans = L.Ibuf.create () in
    let g = regen w ~seed live lane in
    let kinds = Array.make pipeline Sv.Get and keys = Array.make pipeline 0 in
    let items = Array.make pipeline None in
    for r = live.first.(lane) to live.rounds.(lane) - 1 do
      for i = 0 to pipeline - 1 do
        W.next g;
        kinds.(i) <- g.W.kind;
        keys.(i) <- g.W.key
      done;
      let batch = Sv.new_batch () in
      let t0 = Clock.now_ns () in
      for i = 0 to pipeline - 1 do
        items.(i) <- Sv.submit svc batch kinds.(i) keys.(i)
      done;
      Sv.await batch;
      let t1 = Clock.now_ns () in
      for i = 0 to pipeline - 1 do
        match items.(i) with
        | Some it when (not it.Sv.failed) && W.Model.check model kinds.(i) keys.(i) it.Sv.result
          ->
            ()
        | _ -> t.L.failed <- t.L.failed + 1
      done;
      t.L.attempted <- t.L.attempted + pipeline;
      if live.traced.(lane).(r) then begin
        L.Ibuf.push spans (id ~lane ~round:r);
        L.Ibuf.push spans t0;
        L.Ibuf.push spans t1
      end
    done;
    (t, spans)
  in
  let out = par lanes run in
  Sv.stop svc;
  let report = Sv.drain_report svc in
  let t = Array.fold_left (fun acc (t, _) -> L.add_tally acc t) (L.tally ()) out in
  if not report.Sv.conservation_ok then t.L.failed <- t.L.failed + 1;
  (t, Array.map snd out)

(* --- step 3: each shard's batched path, and the store --- *)

type shard_out = {
  groups : L.Ibuf.t;  (** (id, start, end) *)
  store : L.Ibuf.t;  (** (id, append start, append end = sync start, sync end) *)
  ops : int;  (** operations through the grouped pass *)
  store_ops : int;  (** operations of the traced groups, durable only *)
  records : int;
  fsyncs : int;
  gt : L.tally;
}

(* [store_dir]: the durable workload's groups also log their effective
   mutations through a shard store there, as the service worker does. *)
let shard_pass (w : W.t) ~seed live (svc : Sv.t) ~store_dir s =
  let ops = svc.Sv.shards.(s).Sv.register () in
  let gens = Array.init lanes (regen w ~seed live) in
  let kinds = Array.make pipeline Sv.Get and keys = Array.make pipeline 0 in
  let results = Array.make pipeline false in
  let wops = Array.make pipeline Oa_store.Record.Insert and wkeys = Array.make pipeline 0 in
  let st =
    Option.map
      (fun data_dir ->
        fst
          (Store.open_shard ~data_dir ~index:s
             ~segment_bytes:Sv.default_config.Sv.segment_bytes ~ckpt_every:0
             ~on_snapshot:ignore ~on_record:ignore))
      store_dir
  in
  let groups = L.Ibuf.create () and store = L.Ibuf.create () in
  let t = L.tally () in
  let n_ops = ref 0 and store_ops = ref 0 and records = ref 0 and fsyncs = ref 0 in
  let r_lo = Array.fold_left min max_int live.first in
  let r_hi = Array.fold_left max 0 live.rounds in
  for r = r_lo to r_hi - 1 do
    for lane = 0 to lanes - 1 do
      if r >= live.first.(lane) && r < live.rounds.(lane) then begin
        let g = gens.(lane) in
        let n = ref 0 in
        for _ = 1 to pipeline do
          W.next g;
          if Sv.shard_index ~shards:W.shards g.W.key = s then begin
            kinds.(!n) <- g.W.kind;
            keys.(!n) <- g.W.key;
            incr n
          end
        done;
        let n = !n in
        if n > 0 then begin
          n_ops := !n_ops + n;
          t.L.attempted <- t.L.attempted + n;
          (* the service worker's dispatch: batched from two items up *)
          let t0 = Clock.now_ns () in
          (match
             if n >= 2 then ops.Sv.exec_batch ~n kinds keys results
             else results.(0) <- ops.Sv.exec kinds.(0) keys.(0)
           with
          | () -> ()
          | exception _ -> t.L.failed <- t.L.failed + n);
          let t1 = Clock.now_ns () in
          let traced = live.traced.(lane).(r) in
          if traced then begin
            L.Ibuf.push groups (id ~lane ~round:r);
            L.Ibuf.push groups t0;
            L.Ibuf.push groups t1
          end;
          match st with
          | Some st when traced ->
              (* the worker's log_batch: effective mutations only *)
              let m = ref 0 in
              for i = 0 to n - 1 do
                if results.(i) then
                  match kinds.(i) with
                  | Sv.Get -> ()
                  | Sv.Insert | Sv.Delete ->
                      wops.(!m) <-
                        (if kinds.(i) = Sv.Insert then Oa_store.Record.Insert
                         else Oa_store.Record.Delete);
                      wkeys.(!m) <- keys.(i);
                      incr m
              done;
              if !m > 0 then begin
                store_ops := !store_ops + n;
                records := !records + !m;
                let a0 = Clock.now_ns () in
                let last, _ = Store.append st ~n:!m wops wkeys in
                let a1 = Clock.now_ns () in
                if Store.sync st ~upto:last then incr fsyncs;
                let a2 = Clock.now_ns () in
                List.iter (L.Ibuf.push store) [ id ~lane ~round:r; a0; a1; a2 ]
              end
          | _ -> ()
        end
      end
    done
  done;
  Option.iter Store.close st;
  {
    groups;
    store;
    ops = !n_ops;
    store_ops = !store_ops;
    records = !records;
    fsyncs = !fsyncs;
    gt = t;
  }

(* Cost of one [Clock.now_ns] pair, subtracted from per-operation times. *)
let clock_overhead () =
  let a = Array.init 10_001 (fun _ -> 0) in
  for i = 0 to 10_000 do
    let t0 = Clock.now_ns () in
    a.(i) <- Clock.now_ns () - t0
  done;
  Array.sort Int.compare a;
  a.(5_000)

(* Per-kind operation times: the traced rounds' operations once more,
   one [exec] each, each timed on its own. *)
let per_op_pass (w : W.t) ~seed live (svc : Sv.t) ~overhead s =
  let ops = svc.Sv.shards.(s).Sv.register () in
  let gens = Array.init lanes (regen w ~seed live) in
  let sum = Array.make 3 0 and cnt = Array.make 3 0 in
  for lane = 0 to lanes - 1 do
    let g = gens.(lane) in
    for r = live.first.(lane) to live.rounds.(lane) - 1 do
      let traced = live.traced.(lane).(r) in
      for _ = 1 to pipeline do
        W.next g;
        if traced && Sv.shard_index ~shards:W.shards g.W.key = s then begin
          let k = Core.kind_index g.W.kind in
          let t0 = Clock.now_ns () in
          (try ignore (ops.Sv.exec g.W.kind g.W.key) with _ -> ());
          let dt = Clock.now_ns () - t0 - overhead in
          sum.(k) <- sum.(k) + max 0 dt;
          cnt.(k) <- cnt.(k) + 1
        end
      done
    done
  done;
  (sum, cnt)

(* --- step 4: the codec --- *)

let protocol_timing (w : W.t) ~seed live =
  let g = regen w ~seed live 0 in
  let n = max 1 (min 32_768 ((live.rounds.(0) - live.first.(0)) * pipeline)) in
  let reqs =
    Array.init n (fun i ->
        W.next g;
        { P.id = i; op = W.to_wire g.W.kind g.W.key })
  in
  let resps = Array.init n (fun i -> { P.rid = i; body = P.Bool (i land 1 = 0) }) in
  let encode f xs =
    let buf = Buffer.create (n * 24) in
    let t0 = Clock.now_ns () in
    Array.iter (f buf) xs;
    (Clock.now_ns () - t0, Buffer.to_bytes buf)
  in
  let decode dec b =
    let len = Bytes.length b in
    let out = ref [] in
    let t0 = Clock.now_ns () in
    let rec go off =
      if off < len then
        match dec b ~off ~avail:(len - off) with
        | P.Complete (v, c) ->
            out := v :: !out;
            go (off + c)
        | P.Incomplete | P.Fail _ -> ()
    in
    go 0;
    (Clock.now_ns () - t0, List.rev !out)
  in
  let per_frame ns = float_of_int ns /. float_of_int n in
  let samples =
    List.init 5 (fun _ ->
        let e_req, breq = encode P.encode_request reqs in
        let d_req, dreqs = decode P.decode_request breq in
        let e_resp, bresp = encode P.encode_response resps in
        let d_resp, dresps = decode P.decode_response bresp in
        let ok = Array.to_list reqs = dreqs && Array.to_list resps = dresps in
        (per_frame e_req, per_frame d_req, per_frame e_resp, per_frame d_resp, ok))
  in
  let med f = R.median (List.map f samples) in
  ( med (fun (a, _, _, _, _) -> a),
    med (fun (_, b, _, _, _) -> b),
    med (fun (_, _, c, _, _) -> c),
    med (fun (_, _, _, d, _) -> d),
    List.for_all (fun (_, _, _, _, ok) -> ok) samples )

(* --- the server's own snapshot --- *)

(** The [serve --metrics] snapshot (line-delimited JSON) as a lookup from
    ["<metric>.<field>"], e.g. ["net_batch.p50"], to its value; 0 when
    absent. *)
let read_server_metrics path =
  let tbl = Hashtbl.create 64 in
  (try
     let ic = open_in path in
     (try
        while true do
          let line = input_line ic in
          match Json.parse line with
          | j -> (
              match Json.member "metric" j with
              | Some (Json.Str name) ->
                  List.iter
                    (fun field ->
                      match Json.member field j with
                      | Some (Json.Num v) -> Hashtbl.replace tbl (name ^ "." ^ field) v
                      | _ -> ())
                    [ "value"; "p50"; "p99"; "count"; "sum" ]
              | _ -> ())
          | exception Failure _ -> ()
        done
      with End_of_file -> ());
     close_in ic
   with Sys_error _ -> ());
  fun key -> Option.value (Hashtbl.find_opt tbl key) ~default:0.0

(* --- spans out --- *)

let write_trace ~path ~stamp ~client ~service ~(shards : shard_out array) =
  let oc = open_out path in
  Printf.fprintf oc "{\"stamp\": %s,\n \"spans\": [\n" (R.stamp_json stamp);
  let first = ref true in
  let span ?shard name parent sid t0 t1 =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc "  {\"name\": \"%s\", \"id\": %d, \"parent\": %s, %s\"start\": %d, \"end\": %d}"
      name sid
      (match parent with Some p -> "\"" ^ p ^ "\"" | None -> "null")
      (match shard with Some s -> Printf.sprintf "\"shard\": %d, " s | None -> "")
      t0 t1
  in
  let triples ?shard name parent buf =
    for i = 0 to (L.Ibuf.length buf / 3) - 1 do
      let g k = L.Ibuf.get buf ((3 * i) + k) in
      span ?shard name parent (g 0) (g 1) (g 2)
    done
  in
  Array.iter (triples "client.round" None) client;
  Array.iter (triples "service.round" (Some "client.round")) service;
  Array.iteri
    (fun s o ->
      triples ~shard:s "hash_table.group" (Some "service.round") o.groups;
      for i = 0 to (L.Ibuf.length o.store / 4) - 1 do
        let g k = L.Ibuf.get o.store ((4 * i) + k) in
        span ~shard:s "store.append" (Some "service.round") (g 0) (g 1) (g 2);
        span ~shard:s "store.sync" (Some "service.round") (g 0) (g 2) (g 3)
      done)
    shards;
  output_string oc "\n]}\n";
  close_out oc

(* --- SMR and allocator counters --- *)

module I = Oa_core.Smr_intf

type counters = { smr : I.stats; scans : int; stalls : int }

(** The shards' SMR statistics and the sink's hazard-scan and
    allocation-stall counts, read before and after a pass. *)
let counters sink (shards : Sv.shard array) =
  {
    smr = Array.fold_left (fun acc s -> I.add_stats acc (s.Sv.smr_stats ())) I.empty_stats shards;
    scans = Oa_obs.Sink.total sink Oa_obs.Event.Hazard_scan;
    stalls = Oa_obs.Sink.total sink Oa_obs.Event.Alloc_stall;
  }

(** The smr.* metrics of the [ops] operations run between [c0] and [c1]. *)
let smr_values ~ops c0 c1 =
  let d f = float_of_int (f c1.smr - f c0.smr) and ops = float_of_int ops in
  [
    ("smr.allocs_per_op", R.ratio (d (fun s -> s.I.allocs)) ops);
    ("smr.retires_per_op", R.ratio (d (fun s -> s.I.retires)) ops);
    ("smr.recycled_per_retire", R.ratio (d (fun s -> s.I.recycled)) (d (fun s -> s.I.retires)));
    ("smr.rollbacks_per_kop", 1e3 *. R.ratio (d (fun s -> s.I.restarts)) ops);
    ("smr.phases_per_kop", 1e3 *. R.ratio (d (fun s -> s.I.phases)) ops);
    ("smr.fences_per_op", R.ratio (d (fun s -> s.I.fences)) ops);
    ("smr.hazard_scans_per_kop", 1e3 *. R.ratio (float_of_int (c1.scans - c0.scans)) ops);
    ("smr.alloc_stalls", float_of_int (c1.stalls - c0.stalls));
  ]

(** hash_table.{get,insert,delete}_ns from time summed by
    {!Core.kind_index} over [cnt] operations. *)
let per_kind_values ~sum ~cnt =
  List.mapi
    (fun k name -> (name, R.ratio (float_of_int sum.(k)) (float_of_int cnt.(k))))
    [ "hash_table.get_ns"; "hash_table.insert_ns"; "hash_table.delete_ns" ]

(* --- the ladder --- *)

type phases = {
  warm_s : float;
  trace_s : float;
  win_s : float;  (** traced and untraced windows alternate *)
  open_warm_s : float;
  open_s : float;
}

let windows ph = max 2 (int_of_float (Float.round (ph.trace_s /. ph.win_s)))

(* The mean rate of the untraced (even) windows against the traced (odd)
   ones, as a percentage. *)
let overhead_pct rates =
  let by parity = R.mean (List.filteri (fun i _ -> i land 1 = parity) rates) in
  100.0 *. R.ratio (by 0 -. by 1) (by 0)

(* The durable path's store metrics: the append and sync means the
   closure took (over each round's slowest shard), the fsync
   distribution, the WAL's bytes per 9-byte mutation and the time to
   recover it. *)
let store_values ~dir ~append ~sync (shards : shard_out array) sm =
  let syncs = L.Ibuf.create () in
  Array.iter
    (fun o ->
      for i = 0 to (L.Ibuf.length o.store / 4) - 1 do
        L.Ibuf.push syncs (L.Ibuf.get o.store ((4 * i) + 3) - L.Ibuf.get o.store ((4 * i) + 2))
      done)
    shards;
  let syncs = Array.sub syncs.L.Ibuf.a 0 syncs.L.Ibuf.n in
  Array.sort Int.compare syncs;
  let fsync_p50, fsync_p99 =
    match R.percentiles syncs [ 0.5; 0.99 ] with [ a; b ] -> (a /. 1e3, b /. 1e3) | _ -> (0.0, 0.0)
  in
  let t_rec = Clock.now_ns () in
  for s = 0 to W.shards - 1 do
    ignore
      (Oa_store.Recovery.run ~dir:(Store.shard_dir ~data_dir:dir s) ~on_snapshot:ignore
         ~on_record:ignore)
  done;
  let recovery_s = float_of_int (Clock.now_ns () - t_rec) /. 1e9 in
  let wal_bytes =
    Array.fold_left
      (fun acc s ->
        let d = Store.shard_dir ~data_dir:dir s in
        Array.fold_left
          (fun acc f -> acc + (Unix.stat (Filename.concat d f)).Unix.st_size)
          acc (Sys.readdir d))
      0 (Array.init W.shards Fun.id)
  in
  let sumf f = float_of_int (Array.fold_left (fun acc o -> acc + f o) 0 shards) in
  [
    ("store.append_us", append);
    ("store.sync_us", sync);
    ("store.fsync_p50_us", fsync_p50);
    ("store.fsync_p99_us", fsync_p99);
    ("store.fsyncs_per_kop", 1e3 *. R.ratio (sumf (fun o -> o.fsyncs)) (sumf (fun o -> o.store_ops)));
    ("store.bytes_per_user_byte", R.ratio (float_of_int wal_bytes) (9.0 *. sumf (fun o -> o.records)));
    ("store.ckpts", sm "ckpt.value");
    ("store.recovery_s", recovery_s);
  ]

(** One traced run of the kv workload [w]: returns the per-layer metrics
    of the layers its requests pass through. *)
let run ~exe ~out_dir ~stamp (w : W.t) ~seed (ph : phases) =
  Proc.with_tmp ~out_dir w.W.name @@ fun tmp ->
  let metrics_file = Filename.concat out_dir ("metrics-" ^ w.W.name ^ ".jsonl") in
  let data_dir k = if w.W.durable then Some (Filename.concat tmp k) else None in
  let srv, _ =
    Proc.spawn ~exe (W.serve_args w ~data_dir:(data_dir "live") ~metrics:(Some metrics_file))
  in
  let model = W.Model.create w.W.keys in
  let win_ns = L.s_to_ns ph.win_s in
  let windows = windows ph in
  let t_start = Clock.now_ns () + L.s_to_ns ph.warm_s in
  let cfg =
    {
      L.port = srv.Proc.port;
      pipeline;
      t_start;
      win_ns;
      windows;
      t_end = t_start + (windows * win_ns);
      probe = false;
      trace = true;
    }
  in
  let closed = L.closed_loop w ~seed ~model ~lanes cfg in
  let ol =
    L.open_loop w ~seed ~model ~port:srv.Proc.port ~rate:(W.rate w) ~warm_s:ph.open_warm_s
      ~meas_s:ph.open_s
  in
  let served_ok, _ = Proc.stop srv in
  let sm = read_server_metrics metrics_file in
  let live = live_of closed in
  let overhead = overhead_pct (Array.to_list (L.window_rates closed ~win_ns)) in
  (* re-key the live spans by round id *)
  let client =
    Array.of_list
      (List.mapi
         (fun lane (r : L.closed_result) ->
           let buf = r.L.spans and b = L.Ibuf.create () in
           for i = 0 to (L.Ibuf.length buf / 3) - 1 do
             L.Ibuf.push b (id ~lane ~round:(L.Ibuf.get buf (3 * i)));
             L.Ibuf.push b (L.Ibuf.get buf ((3 * i) + 1));
             L.Ibuf.push b (L.Ibuf.get buf ((3 * i) + 2))
           done;
           b)
         closed)
  in
  let st, service = service_replay w ~seed ~data_dir:(data_dir "replay") live in
  Gc.full_major ();
  let sink = Oa_obs.Sink.create () in
  let svc = Sv.create ~obs:sink (W.service_config w ~data_dir:None) in
  let c0 = counters sink svc.Sv.shards in
  let store_dir = data_dir "store" in
  let shards = par W.shards (shard_pass w ~seed live svc ~store_dir) in
  let c1 = counters sink svc.Sv.shards in
  let overhead_ns = clock_overhead () in
  let per_op = par W.shards (per_op_pass w ~seed live svc ~overhead:overhead_ns) in
  let valid =
    Array.for_all (fun s -> s.Sv.validate () = Ok ()) svc.Sv.shards
    && c1.smr.I.recycled <= c1.smr.I.retires
  in
  let e_req, d_req, e_resp, d_resp, codec_ok = protocol_timing w ~seed live in
  write_trace
    ~path:(Filename.concat out_dir ("trace-" ^ w.W.name ^ ".json"))
    ~stamp ~client ~service ~shards;
  (* closure over the rounds traced in every layer *)
  let ctab = Array.map table_of_spans client and stab = Array.map table_of_spans service in
  let gtab = Array.map (fun o -> table_of_spans o.groups) shards in
  let store_tab =
    Array.map
      (fun o ->
        let h = Hashtbl.create 1024 in
        for i = 0 to (L.Ibuf.length o.store / 4) - 1 do
          let g k = L.Ibuf.get o.store ((4 * i) + k) in
          Hashtbl.replace h (g 0) (g 2 - g 1, g 3 - g 2)
        done;
        h)
      shards
  in
  let n = ref 0 in
  let net = ref 0 and srvc = ref 0 and grp = ref 0 and app = ref 0 and syn = ref 0 in
  Array.iteri
    (fun lane ct ->
      Hashtbl.iter
        (fun rid c ->
          match Hashtbl.find_opt stab.(lane) rid with
          | None -> ()
          | Some sv ->
              (* the round waits for its slowest shard *)
              let best = ref (-1, 0, 0, 0) in
              for s = 0 to W.shards - 1 do
                let g = Option.value (Hashtbl.find_opt gtab.(s) rid) ~default:0 in
                let a, y = Option.value (Hashtbl.find_opt store_tab.(s) rid) ~default:(0, 0) in
                let tot, _, _, _ = !best in
                if g + a + y > tot then best := (g + a + y, g, a, y)
              done;
              let _, g, a, y = !best in
              incr n;
              net := !net + c;
              srvc := !srvc + sv;
              grp := !grp + g;
              app := !app + a;
              syn := !syn + y)
        ct)
    ctab;
  let us x = if !n = 0 then 0.0 else float_of_int x /. float_of_int !n /. 1e3 in
  let net_round = us !net and service_round = us !srvc in
  let group = us !grp and append = us !app and sync = us !syn in
  let crit = group +. append +. sync in
  let net_self = Float.max 0.0 (net_round -. service_round) in
  let service_self = Float.max 0.0 (service_round -. crit) in
  let unattributed = net_round -. (net_self +. service_self +. crit) in
  let late_p99 = match R.percentiles ol.L.late [ 0.99 ] with [ b ] -> b /. 1e3 | _ -> 0.0 in
  let ops = Array.fold_left (fun acc o -> acc + o.ops) 0 shards in
  let kind f = Array.init 3 (fun k -> Array.fold_left (fun acc p -> acc + (f p).(k)) 0 per_op) in
  let values =
    [
      ("loadgen.late_p99_us", late_p99);
      ("protocol.encode_req_ns", e_req);
      ("protocol.decode_req_ns", d_req);
      ("protocol.encode_resp_ns", e_resp);
      ("protocol.decode_resp_ns", d_resp);
      ("net.round_us", net_round);
      ("net.self_us", net_self);
      ("service.round_us", service_round);
      ("service.self_us", service_self);
      ("shard_queue.batch_p50", sm "net_batch.p50");
      ("shard_queue.depth_p99", sm "net_queue_depth.p99");
      ("service.busy", sm "req_busy.value");
    ]
    @ per_kind_values ~sum:(kind fst) ~cnt:(kind snd)
    @ [ ("hash_table.group_us", group) ]
    @ smr_values ~ops c0 c1
    @ [
        ("alloc.committed_mb", sm "mem_committed_bytes.value" /. 1048576.0);
        ("alloc.chunks_live", sm "mem_chunks_live.value");
        ("alloc.mem_grow", sm "mem_grow.value");
      ]
    @ (match store_dir with
      | Some dir -> store_values ~dir ~append ~sync shards sm
      | None -> [])
    @ [ ("unattributed_us", unattributed); ("trace.overhead_pct", overhead) ]
  in
  let closure = R.ratio (net_self +. service_self +. crit) net_round in
  Printf.printf
    "# closure: net.self %.2f + service.self %.2f + group %.2f%s = %.2f of net.round %.2f us \
     (%.1f%%, %d rounds; within 10%%: %s)\n"
    net_self service_self group
    (if w.W.durable then Printf.sprintf " + append %.2f + sync %.2f" append sync else "")
    (net_self +. service_self +. crit) net_round (100.0 *. closure) !n
    (if Float.abs (1.0 -. closure) <= 0.10 then "yes" else "no");
  Printf.printf "# trace: %d client rounds, clock overhead %d ns, late samples %d\n"
    (Array.fold_left (fun acc b -> acc + (L.Ibuf.length b / 3)) 0 client)
    overhead_ns (Array.length ol.L.late);
  let lt = List.fold_left (fun acc (r : L.closed_result) -> L.add_tally acc r.L.ct) ol.L.ot closed in
  let t =
    Array.fold_left (fun acc o -> L.add_tally acc o.gt) (L.add_tally lt st) shards
  in
  let failed =
    t.L.failed
    + (if served_ok then 0 else 1)
    + (if valid then 0 else 1)
    + if codec_ok then 0 else 1
  in
  { R.correct = failed = 0; attempted = t.L.attempted; failed; values }

(* --- core_update: the table alone --- *)

(** The traced run of core_update: its own mix on its own table, the two
    domains' per-operation calls timed one by one in the odd windows (the
    even windows run untimed, for [trace.overhead_pct]).  No server,
    queue, codec or store is on its path, so none is measured. *)
let core (w : W.t) ~seed (ph : phases) =
  let sink = Oa_obs.Sink.create () in
  let shard, model = Core.build ~obs:sink w ~seed in
  let overhead = clock_overhead () in
  let c0 = counters sink [| shard |] in
  let r =
    Core.run w ~seed shard model ~timing:(Core.Per_kind { overhead }) ~warm_s:ph.warm_s
      ~win_s:ph.win_s ~windows:(windows ph)
  in
  let c1 = counters sink [| shard |] in
  let failed =
    r.Core.ct.L.failed
    +
    match Core.verdict shard with
    | Ok () -> 0
    | Error e ->
        Printf.printf "# %s\n" e;
        1
  in
  let gauge name =
    float_of_int (Option.value (List.assoc_opt name (shard.Sv.mem_gauges ())) ~default:0)
  in
  Printf.printf "# trace: %d operations, %d timed, clock overhead %d ns\n" r.Core.ct.L.attempted
    (Array.fold_left ( + ) 0 r.Core.kind_n)
    overhead;
  let values =
    per_kind_values ~sum:r.Core.kind_ns ~cnt:r.Core.kind_n
    @ smr_values ~ops:r.Core.ct.L.attempted c0 c1
    @ [
        ("alloc.committed_mb", gauge "mem_committed_bytes" /. 1048576.0);
        ("alloc.chunks_live", gauge "mem_chunks_live");
        ("alloc.mem_grow", float_of_int (Oa_obs.Sink.total sink Oa_obs.Event.Mem_grow));
        ( "trace.overhead_pct",
          overhead_pct (List.map float_of_int (Array.to_list r.Core.counts)) );
      ]
  in
  { R.correct = failed = 0; attempted = r.Core.ct.L.attempted; failed; values }
