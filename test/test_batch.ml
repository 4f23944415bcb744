(* Differential tests for the batched execution path
   (Smr_intf.S.run_batch, reached through Hash_table.run_batch):

   the same random operation sequence is executed three ways — through the
   batched path, one operation at a time, and against a sequential IntSet
   model — and all three must agree element-wise on the results and on the
   final contents.  Single-threaded, batching is pure amortisation: a
   batch runs in submission order, so any divergence is a bug in a
   scheme's batch amortisation (a leaked warning bit, a hazard carried
   past its validity, an epoch announcement skipped).

   The matrix covers all seven schemes on the simulated and the real
   backend, with a deliberately hostile SMR configuration (chunk 2,
   scan/phase thresholds of 4) so reclamation runs many times inside each
   sequence, and asserts retire/reclaim conservation after a final
   quiesce.  A multi-domain smoke per scheme drives the batched path
   concurrently on the real backend and re-checks conservation and
   structural validity. *)

module I = Oa_core.Smr_intf
module Schemes = Oa_smr.Schemes
module SM = Oa_util.Splitmix

type op = C | Ins | Del

let op_name = function C -> "contains" | Ins -> "insert" | Del -> "delete"

let show_case (ops, batch) =
  Printf.sprintf "batch=%d [%s]" batch
    (String.concat "; "
       (List.map (fun (o, k) -> Printf.sprintf "%s %d" (op_name o) k) ops))

(* --- the sequential model --- *)

module IS = Set.Make (Int)

let model ops =
  let final, rev_results =
    List.fold_left
      (fun (s, acc) (o, key) ->
        match o with
        | C -> (s, IS.mem key s :: acc)
        | Ins ->
            if IS.mem key s then (s, false :: acc)
            else (IS.add key s, true :: acc)
        | Del ->
            if IS.mem key s then (IS.remove key s, true :: acc)
            else (s, false :: acc))
      (IS.empty, []) ops
  in
  (Array.of_list (List.rev rev_results), IS.elements final)

(* --- one execution of the sequence on a real structure --- *)

type exec = {
  results : bool array;
  final : int list;
  stats : I.stats;
  retired : int;
  reclaimed : int;
  validation : (unit, string) result;
}

(* Hostile enough that reclamation phases flip many times within a
   60-operation sequence, mild enough that every scheme accepts it. *)
let hostile_cfg =
  {
    I.chunk_size = 2;
    hp_slots = 3;
    max_cas = 1;
    retire_threshold = 4;
    epoch_threshold = 4;
    anchor_interval = 8;
    ebr_op_work = 0;
  }

let run_hash (module R : Oa_runtime.Runtime_intf.S) id ~batch ops =
  let module Sch = Schemes.Make (R) in
  let module S = (val Sch.pack id) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let sink = Oa_obs.Sink.create () in
  let opsa = Array.of_list ops in
  let n = Array.length opsa in
  let capacity = n + 128 in
  let tbl = H.create ~obs:sink ~capacity ~expected_size:8 hostile_cfg in
  let results = Array.make n false in
  R.par_run ~n:1 (fun _ ->
      let ctx = H.register tbl in
      if batch <= 1 then
        Array.iteri
          (fun i (o, key) ->
            results.(i) <-
              (match o with
              | C -> H.contains tbl ctx key
              | Ins -> H.insert tbl ctx key
              | Del -> H.delete tbl ctx key))
          opsa
      else begin
        (* the server worker's shape: max-sized kind/key buffers, the
           first [b] entries live *)
        let kinds = Array.make batch C in
        let keys = Array.make batch 0 in
        let i = ref 0 in
        while !i < n do
          let base = !i in
          let b = min batch (n - base) in
          for j = 0 to b - 1 do
            let o, key = opsa.(base + j) in
            kinds.(j) <- o;
            keys.(j) <- key
          done;
          H.run_batch ctx b (fun j ->
              results.(base + j) <-
                (match kinds.(j) with
                | C -> H.contains tbl ctx keys.(j)
                | Ins -> H.insert tbl ctx keys.(j)
                | Del -> H.delete tbl ctx keys.(j)));
          i := base + b
        done
      end;
      H.quiesce ctx);
  {
    results;
    final = List.sort compare (H.to_list tbl);
    stats = S.stats (H.smr tbl);
    retired = Oa_obs.Sink.total sink Oa_obs.Event.Retire;
    reclaimed = Oa_obs.Sink.total sink Oa_obs.Event.Reclaim;
    validation = H.validate tbl ~limit:(10 * capacity);
  }

(* Same sequence through Linked_list.run_batch — one chain instead of
   the table's buckets. *)
let run_list (module R : Oa_runtime.Runtime_intf.S) id ~batch ops =
  let module Sch = Schemes.Make (R) in
  let module S = (val Sch.pack id) in
  let module Ll = Oa_structures.Linked_list.Make (S) in
  let sink = Oa_obs.Sink.create () in
  let opsa = Array.of_list ops in
  let n = Array.length opsa in
  let capacity = n + 128 in
  let t = Ll.create ~obs:sink ~capacity hostile_cfg in
  let results = Array.make n false in
  R.par_run ~n:1 (fun _ ->
      let ctx = Ll.register t in
      let exec i =
        let o, key = opsa.(i) in
        results.(i) <-
          (match o with
          | C -> Ll.contains ctx key
          | Ins -> Ll.insert ctx key
          | Del -> Ll.delete ctx key)
      in
      if batch <= 1 then
        for i = 0 to n - 1 do
          exec i
        done
      else begin
        let i = ref 0 in
        while !i < n do
          let base = !i in
          let b = min batch (n - base) in
          Ll.run_batch ctx b (fun j -> exec (base + j));
          i := base + b
        done
      end;
      Ll.quiesce ctx);
  {
    results;
    final = Ll.to_list t;
    stats = S.stats (Ll.smr t);
    retired = Oa_obs.Sink.total sink Oa_obs.Event.Retire;
    reclaimed = Oa_obs.Sink.total sink Oa_obs.Event.Reclaim;
    validation = Ll.validate t ~limit:(10 * capacity);
  }

(* --- the differential property --- *)

let check_conservation ~what (e : exec) =
  if e.stats.I.recycled > e.stats.I.retires then
    QCheck.Test.fail_reportf "%s: recycled %d > retired %d (double free?)"
      what e.stats.I.recycled e.stats.I.retires;
  if e.reclaimed > e.retired then
    QCheck.Test.fail_reportf "%s: reclaim events %d > retire events %d" what
      e.reclaimed e.retired;
  match e.validation with
  | Ok () -> ()
  | Error m -> QCheck.Test.fail_reportf "%s: structural violation: %s" what m

let check_against_model ~what (mr, mf) (e : exec) =
  if e.results <> mr then
    QCheck.Test.fail_reportf "%s: results diverge from the model" what;
  if e.final <> mf then
    QCheck.Test.fail_reportf "%s: final contents diverge from the model" what;
  check_conservation ~what e

let backends =
  [
    ( "sim",
      fun () ->
        Oa_runtime.Sim_backend.make ~seed:11 ~quantum:128 ~max_threads:2
          Oa_simrt.Cost_model.amd_opteron );
    ("real-flat", fun () -> Oa_runtime.Real_backend.make ~max_threads:2 ());
  ]

let gen_case =
  QCheck.Gen.(
    pair
      (list_size (int_range 1 60)
         (pair
            (frequencyl [ (2, C); (3, Ins); (3, Del) ])
            (int_range 1 10)))
      (int_range 2 24))

let arb_case = QCheck.make ~print:show_case gen_case

(* One property per backend: every scheme, batched vs one-at-a-time vs
   model, with conservation after quiesce on both executions. *)
let prop_hash_differential (bname, backend) =
  QCheck.Test.make
    ~name:(Printf.sprintf "hash batched = sequential = model (%s)" bname)
    ~count:8 arb_case
    (fun (ops, batch) ->
      List.iter
        (fun id ->
          let what sub =
            Printf.sprintf "%s/%s/%s" bname (Schemes.id_name id) sub
          in
          let m = model ops in
          let batched = run_hash (backend ()) id ~batch ops in
          let seq = run_hash (backend ()) id ~batch:1 ops in
          check_against_model ~what:(what "batched") m batched;
          check_against_model ~what:(what "per-op") m seq)
        Schemes.all_ids;
      true)

let prop_list_differential =
  QCheck.Test.make ~name:"list batched = sequential = model (sim)" ~count:6
    arb_case
    (fun (ops, batch) ->
      List.iter
        (fun id ->
          let backend () =
            Oa_runtime.Sim_backend.make ~seed:23 ~quantum:128 ~max_threads:2
              Oa_simrt.Cost_model.amd_opteron
          in
          let what sub =
            Printf.sprintf "sim-list/%s/%s" (Schemes.id_name id) sub
          in
          let m = model ops in
          let batched = run_list (backend ()) id ~batch ops in
          let seq = run_list (backend ()) id ~batch:1 ops in
          check_against_model ~what:(what "batched") m batched;
          check_against_model ~what:(what "per-op") m seq)
        Schemes.all_ids;
      true)

(* --- multi-domain batched smoke on the flat real backend --- *)

let concurrent_smoke id () =
  let threads = 4 and per_thread_batches = 150 and bsize = 16 in
  let key_range = 400 and prefill = 200 in
  let module R = (val Oa_runtime.Real_backend.make ~max_threads:(threads + 1) ())
  in
  let module Sch = Schemes.Make (R) in
  let module S = (val Sch.pack id) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let sink = Oa_obs.Sink.create () in
  let total_ops = threads * per_thread_batches * bsize in
  let capacity =
    match id with
    | Schemes.No_reclamation -> prefill + total_ops
    | _ -> prefill + 6_000
  in
  let cfg =
    {
      I.default_config with
      I.chunk_size = 16;
      retire_threshold = 64;
      epoch_threshold = 64;
    }
  in
  let tbl = H.create ~obs:sink ~capacity ~expected_size:prefill cfg in
  let ctx0 = H.register tbl in
  let rng = SM.create 7 in
  let remaining = ref prefill in
  while !remaining > 0 do
    let k = 1 + SM.below rng key_range in
    if H.insert tbl ctx0 k then decr remaining
  done;
  R.par_run ~n:threads (fun tid ->
      let ctx = H.register tbl in
      let rng = SM.create (100 + (tid * 7919)) in
      let kinds = Array.make bsize C in
      let keys = Array.make bsize 0 in
      for _ = 1 to per_thread_batches do
        for j = 0 to bsize - 1 do
          keys.(j) <- 1 + SM.below rng key_range;
          kinds.(j) <-
            (match SM.below rng 10 with
            | 0 | 1 | 2 | 3 | 4 | 5 -> C
            | 6 | 7 -> Ins
            | _ -> Del)
        done;
        H.run_batch ctx bsize (fun j ->
            ignore
              (match kinds.(j) with
              | C -> H.contains tbl ctx keys.(j)
              | Ins -> H.insert tbl ctx keys.(j)
              | Del -> H.delete tbl ctx keys.(j)))
      done;
      H.quiesce ctx);
  (match H.validate tbl ~limit:(10 * capacity) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: structural violation: %s" (Schemes.id_name id) m);
  let stats = S.stats (H.smr tbl) in
  let retired = Oa_obs.Sink.total sink Oa_obs.Event.Retire in
  let reclaimed = Oa_obs.Sink.total sink Oa_obs.Event.Reclaim in
  Alcotest.(check bool)
    "recycled <= retires" true
    (stats.I.recycled <= stats.I.retires);
  Alcotest.(check bool) "reclaim <= retire events" true (reclaimed <= retired);
  (* The batched path must actually have been taken and recorded. *)
  let snap = Oa_obs.Sink.snapshot sink in
  let batch_count =
    match Oa_obs.Snapshot.find_hist snap "op_batch_amortized" with
    | None -> 0
    | Some h -> Oa_obs.Histogram.count h
  in
  Alcotest.(check bool)
    "op_batch_amortized histogram populated" true
    (batch_count >= threads * per_thread_batches)

(* --- the group-prefetch pass (Hash_table.prefetch) --- *)

(* One op stream through two shards built as a server builds them: one
   in chunks of 64 through [exec_batch] — the group-prefetch pass, then
   the batched path — the other op by op through [exec], which does not
   prefetch.  The table has 2^17 buckets, so the pass prefetches heads
   spread over a megabyte.  Answers, final contents and a model must all
   agree, on fixed and elastic arenas. *)
let prefetch_differential id ~elastic () =
  let module Sv = Oa_net.Service in
  let cfg =
    {
      Sv.default_config with
      Sv.scheme = id;
      shards = 1;
      prefill = 50_000;
      key_range = 200_000;
      delta = 2_000;
      chunk_size = 16;
      elastic;
    }
  in
  let n = 30_000 and batch = 64 in
  let rng = SM.create 29 in
  let kinds =
    Array.init n (fun _ ->
        match SM.below rng 10 with
        | 0 | 1 | 2 | 3 -> Sv.Get
        | 4 | 5 | 6 -> Sv.Insert
        | _ -> Sv.Delete)
  in
  (* a narrow key window, so deletes find keys and reclamation runs *)
  let keys = Array.init n (fun _ -> 1 + SM.below rng 6_000) in
  let model = Hashtbl.create 4096 in
  let expected =
    Array.init n (fun i ->
        let k = keys.(i) in
        let present = Hashtbl.mem model k in
        match kinds.(i) with
        | Sv.Get -> present
        | Sv.Insert ->
            if not present then Hashtbl.replace model k ();
            not present
        | Sv.Delete ->
            if present then Hashtbl.remove model k;
            present)
  in
  let shard () = fst (Sv.make_shard ~obs:Oa_obs.Sink.disabled ~index:0 ~cfg) in
  let batched = shard () and per_op = shard () in
  Alcotest.(check bool)
    "at least 2^16 buckets" true
    (Oa_structures.Hash_table.bucket_count
       ~expected_size:(cfg.Sv.prefill / cfg.Sv.shards)
     >= 1 lsl 16);
  let wb = batched.Sv.register () and wp = per_op.Sv.register () in
  let got_b = Array.make n false and got_p = Array.make n false in
  let bk = Array.make batch Sv.Get
  and bkeys = Array.make batch 0
  and bres = Array.make batch false in
  let i = ref 0 in
  while !i < n do
    let base = !i in
    let m = min batch (n - base) in
    Array.blit kinds base bk 0 m;
    Array.blit keys base bkeys 0 m;
    wb.Sv.exec_batch ~n:m bk bkeys bres;
    Array.blit bres 0 got_b base m;
    i := base + m
  done;
  Array.iteri (fun i k -> got_p.(i) <- wp.Sv.exec k keys.(i)) kinds;
  wb.Sv.quiesce ();
  wp.Sv.quiesce ();
  Alcotest.(check (array bool)) "batched answers = model" expected got_b;
  Alcotest.(check (array bool)) "per-op answers = model" expected got_p;
  let sorted = Hashtbl.fold (fun k () acc -> k :: acc) model [] in
  let sorted = Array.of_list (List.sort compare sorted) in
  Alcotest.(check (array int))
    "batched contents" sorted
    (batched.Sv.contents ());
  Alcotest.(check (array int)) "per-op contents" sorted (per_op.Sv.contents ());
  (match batched.Sv.validate () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "batched shard: %s" e);
  let st = batched.Sv.smr_stats () in
  Alcotest.(check bool)
    "recycled <= retires" true
    (st.I.recycled <= st.I.retires)

(* Prefetching never faults, whatever a head holds.  Each bucket head of
   a small-chunk elastic table is pointed back at a node its chain held
   before every key was deleted, quiesced and its chunk decommitted
   (MADV_DONTNEED: the pages are gone, the mapping stays), and then, on
   a fixed table, at recycled nodes and at the arena's last node; the
   pass reads each such head and prefetches through it. *)
let prefetch_no_fault id () =
  let module R = (val Oa_runtime.Real_backend.make ~max_threads:2 ()) in
  let module Sch = Schemes.Make (R) in
  let module S = (val Sch.pack id) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let module Ptr = Oa_mem.Ptr in
  let nkeys = 4_096 in
  let keys = Array.init nkeys (fun i -> i + 1) in
  let cfg =
    { I.default_config with I.chunk_size = 16; retire_threshold = 16 }
  in
  let run ~elastic =
    let capacity = 2 * nkeys in
    let tbl =
      H.create ~elastic ~chunk_nodes:64 ~capacity ~expected_size:nkeys cfg
    in
    let ctx = H.register tbl in
    Array.iter (fun k -> ignore (H.insert tbl ctx k)) keys;
    let heads = Array.map (fun k -> R.read (H.bucket tbl k)) keys in
    Array.iter (fun k -> ignore (H.delete tbl ctx k)) keys;
    (* the lookups unlink and retire what the deletes marked *)
    Array.iter (fun k -> ignore (H.contains tbl ctx k)) keys;
    H.quiesce ctx;
    H.quiesce ctx;
    if elastic && id <> Schemes.No_reclamation then
      Alcotest.(check bool)
        "a chunk was decommitted" true
        (List.assoc "mem_chunks_live" (H.gauges tbl)
        < List.assoc "mem_chunks_mapped" (H.gauges tbl));
    let saved = Array.map (fun k -> R.read (H.bucket tbl k)) keys in
    let stale f =
      Array.iteri (fun i k -> R.write (H.bucket tbl k) (f i)) keys
    in
    stale (fun i -> heads.(i));
    H.prefetch tbl ~n:nkeys keys;
    if not elastic then begin
      stale (fun _ -> Ptr.of_index (capacity - 1));
      H.prefetch tbl ~n:nkeys keys
    end;
    stale (fun i -> saved.(i));
    (match H.validate tbl ~limit:capacity with
    | Ok () -> ()
    | Error e -> Alcotest.failf "after prefetch: %s" e);
    if H.to_list tbl <> [] then Alcotest.fail "table not empty"
  in
  run ~elastic:true;
  run ~elastic:false

(* The hint is invisible to the simulator: two threads run one op stream
   on a simulated hash table under a random-walk schedule, once with a
   prefetch of each operation's bucket head and once without; the
   schedule decisions, the makespan and the answers must be identical. *)
let prefetch_sim_untouched () =
  let run ~hint =
    let sched =
      Oa_simrt.Sched.create ~seed:5 ~quantum:64
        Oa_simrt.Cost_model.amd_opteron
    in
    let module R = (val Oa_runtime.Sim_backend.of_sched ~max_threads:2 sched) in
    let module Sch = Schemes.Make (R) in
    let module S = (val Sch.pack Schemes.Optimistic_access) in
    let module H = Oa_structures.Hash_table.Make (S) in
    let tbl = H.create ~capacity:2_000 ~expected_size:64 hostile_cfg in
    let answers = Array.make 400 false in
    let engine =
      Oa_check.Engine.install sched ~n:2
        (Oa_check.Engine.Drive
           {
             policy =
               {
                 Oa_check.Policy.policy = Oa_check.Policy.Random_walk;
                 seed = 17;
               };
             faults = [];
             probe = (fun () -> 0);
           })
    in
    R.par_run ~n:2 (fun tid ->
        let ctx = H.register tbl in
        let rng = SM.create (3 + tid) in
        for i = 0 to 199 do
          let key = 1 + SM.below rng 96 in
          if hint then R.prefetch (H.bucket tbl key);
          answers.((2 * i) + tid) <-
            (match SM.below rng 3 with
            | 0 -> H.contains tbl ctx key
            | 1 -> H.insert tbl ctx key
            | _ -> H.delete tbl ctx key)
        done);
    Oa_check.Engine.uninstall engine;
    ( Oa_check.Engine.decisions engine,
      R.elapsed_seconds (),
      answers,
      H.to_list tbl )
  in
  let d0, e0, a0, c0 = run ~hint:false and d1, e1, a1, c1 = run ~hint:true in
  Alcotest.(check bool) "decisions recorded" true (Array.length d0 > 100);
  Alcotest.(check (array int)) "same decisions" d0 d1;
  Alcotest.(check (float 0.)) "same makespan" e0 e1;
  Alcotest.(check (array bool)) "same answers" a0 a1;
  Alcotest.(check (list int)) "same contents" c0 c1

let () =
  Alcotest.run "batch"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          (prop_list_differential
          :: List.map prop_hash_differential backends) );
      ( "concurrent",
        List.map
          (fun id ->
            Alcotest.test_case
              (Printf.sprintf "batched smoke (%s)" (Schemes.id_name id))
              `Quick (concurrent_smoke id))
          Schemes.all_ids );
      ( "prefetch",
        List.concat_map
          (fun id ->
            let name = Schemes.id_name id in
            [
              Alcotest.test_case
                (Printf.sprintf "exec_batch = exec, fixed (%s)" name)
                `Quick
                (prefetch_differential id ~elastic:false);
              Alcotest.test_case
                (Printf.sprintf "exec_batch = exec, elastic (%s)" name)
                `Quick
                (prefetch_differential id ~elastic:true);
              Alcotest.test_case
                (Printf.sprintf "stale heads do not fault (%s)" name)
                `Quick (prefetch_no_fault id);
            ])
          Schemes.all_ids
        @ [
            Alcotest.test_case "simulated schedule unchanged" `Quick
              prefetch_sim_untouched;
          ] );
    ]
