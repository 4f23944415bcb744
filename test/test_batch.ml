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
    ]
