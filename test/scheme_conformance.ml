(* Scheme-generic conformance harness: one suite, instantiated for every
   scheme in [Schemes.all_ids], so adding scheme number eight to the
   registry is one more functor application — it automatically faces the
   same contract the existing seven do.  The contract, per scheme:

   - sequential equivalence: random operation sequences on the hash
     table agree element-wise with a functional set model (qcheck);
   - batched = sequential: the same sequence through [run_batch] and one
     operation at a time produces identical results and final contents —
     a differential qcheck on the linked list, the raw scheme-level
     batched path on a single chain;
   - conservation + quiesce: a tight arena (capacity far below total
     allocations) forces every reclaiming scheme to actually recycle —
     completing without [Arena_exhausted] is the proof — and after the
     final quiesce recycled <= retires and reclaim events <= retire
     events, with structural validity;
   - elastic churn: grow-then-shrink on the elastic allocator; after the
     working set is deleted and quiesced, reclaiming schemes must have
     decommitted chunks (the committed-bytes gauge drops from its peak)
     while No_reclamation, by construction, holds everything it mapped;
   - crash recovery: the WAL crash checker's boundary and torn-tail
     replay oracle passes.  The store is scheme-agnostic, but every
     recovery rebuilds a table through the scheme's alloc path and the
     live run retires through it, so all seven schemes are exercised.

   Backends: the deterministic simulator for the model, differential and
   churn tests; the crash checker drives the real backend internally.
   Structure-specific depth (skip list, edge cases, multi-domain smokes)
   stays in test_structures/test_batch — this file owns the per-scheme
   contract those suites used to restate scheme by scheme. *)

module I = Oa_core.Smr_intf
module Schemes = Oa_smr.Schemes
module CM = Oa_simrt.Cost_model
module IS = Set.Make (Int)

let reclaims id = id <> Schemes.No_reclamation

(* Hostile enough that reclamation phases flip many times inside even a
   short sequence; mild enough that every scheme accepts it. *)
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

let sim () =
  Oa_runtime.Sim_backend.make ~seed:31 ~quantum:128 ~max_threads:2
    CM.amd_opteron

(* --- workload vocabulary shared by the model-based tests --- *)

type op = C | Ins | Del

let model_apply set (o, k) =
  match o with
  | C -> IS.mem k !set
  | Ins ->
      if IS.mem k !set then false
      else begin
        set := IS.add k !set;
        true
      end
  | Del ->
      if IS.mem k !set then begin
        set := IS.remove k !set;
        true
      end
      else false

let show_ops ops =
  String.concat ";"
    (List.map
       (fun (o, k) ->
         Printf.sprintf "%s%d" (match o with C -> "C" | Ins -> "I" | Del -> "D") k)
       ops)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 120)
      (pair (frequencyl [ (2, C); (3, Ins); (3, Del) ]) (int_range 1 12)))

let arb_ops = QCheck.make ~print:show_ops gen_ops

let arb_case =
  QCheck.make
    ~print:(fun (ops, b) -> Printf.sprintf "batch=%d [%s]" b (show_ops ops))
    QCheck.Gen.(pair gen_ops (int_range 2 16))

(* --- sequential equivalence: hash table vs the set model --- *)

let prop_sequential id =
  QCheck.Test.make
    ~name:(Printf.sprintf "sequential = model (%s)" (Schemes.id_name id))
    ~count:15 arb_ops
    (fun ops ->
      let module R = (val sim ()) in
      let module Sch = Schemes.Make (R) in
      let module S = (val Sch.pack id) in
      let module H = Oa_structures.Hash_table.Make (S) in
      let tbl =
        H.create ~capacity:(List.length ops + 128) ~expected_size:8 hostile_cfg
      in
      let ctx = H.register tbl in
      let set = ref IS.empty in
      List.for_all
        (fun ((o, k) as op) ->
          let expected = model_apply set op in
          let got =
            match o with
            | C -> H.contains tbl ctx k
            | Ins -> H.insert tbl ctx k
            | Del -> H.delete tbl ctx k
          in
          expected = got)
        ops
      &&
      (H.quiesce ctx;
       List.sort compare (H.to_list tbl) = IS.elements !set
       && H.validate tbl ~limit:10_000 = Ok ()))

(* --- batched = sequential: the raw scheme-level run_batch path --- *)

let run_list id ~batch ops =
  let module R = (val sim ()) in
  let module Sch = Schemes.Make (R) in
  let module S = (val Sch.pack id) in
  let module Ll = Oa_structures.Linked_list.Make (S) in
  let opsa = Array.of_list ops in
  let n = Array.length opsa in
  let t = Ll.create ~capacity:(n + 128) hostile_cfg in
  let ctx = Ll.register t in
  let results = Array.make n false in
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
  Ll.quiesce ctx;
  let stats = S.stats (Ll.smr t) in
  (results, Ll.to_list t, stats, Ll.validate t ~limit:10_000)

let prop_differential id =
  QCheck.Test.make
    ~name:(Printf.sprintf "batched = sequential (%s)" (Schemes.id_name id))
    ~count:5 arb_case
    (fun (ops, batch) ->
      let set = ref IS.empty in
      let expected = List.map (model_apply set) ops in
      let check what (results, final, stats, validation) =
        if Array.to_list results <> expected then
          QCheck.Test.fail_reportf "%s: results diverge from the model" what;
        if final <> IS.elements !set then
          QCheck.Test.fail_reportf "%s: final contents diverge" what;
        if stats.I.recycled > stats.I.retires then
          QCheck.Test.fail_reportf "%s: recycled %d > retired %d" what
            stats.I.recycled stats.I.retires;
        match validation with
        | Ok () -> ()
        | Error m -> QCheck.Test.fail_reportf "%s: structural violation: %s" what m
      in
      check "batched" (run_list id ~batch ops);
      check "per-op" (run_list id ~batch:1 ops);
      true)

(* --- conservation + quiesce under a tight arena --- *)

(* Scan and epoch thresholds far above the arena slack: no reclamation
   pass runs until the arena is dry, so the first one comes from an
   allocation stall in the middle of an operation — the position
   [Experiment]'s delta-sized thresholds put a single thread in. *)
let stall_cfg =
  { hostile_cfg with I.retire_threshold = 1_000; epoch_threshold = 1_000 }

let churn_rounds = 30
let churn_keys = 16

let test_tight_churn ?(cfg = hostile_cfg) id () =
  let module R = (val sim ()) in
  let module Sch = Schemes.Make (R) in
  let module S = (val Sch.pack id) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let sink = Oa_obs.Sink.create () in
  (* Reclaiming schemes must survive on a fraction of the total
     allocation count; No_reclamation gets room for everything. *)
  let capacity =
    if reclaims id then 128 else (churn_rounds * churn_keys) + 128
  in
  let tbl = H.create ~obs:sink ~capacity ~expected_size:8 cfg in
  let ctx = H.register tbl in
  for _round = 1 to churn_rounds do
    for k = 1 to churn_keys do
      ignore (H.insert tbl ctx k)
    done;
    for k = 1 to churn_keys do
      ignore (H.delete tbl ctx k)
    done;
    (* deletion only marks; a contains sweep snips and retires *)
    for k = 1 to churn_keys do
      ignore (H.contains tbl ctx k)
    done
  done;
  H.quiesce ctx;
  H.quiesce ctx;
  (match H.validate tbl ~limit:100_000 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "structural violation: %s" m);
  Alcotest.(check (list int)) "empty at the end" [] (H.to_list tbl);
  let st = S.stats (H.smr tbl) in
  Alcotest.(check bool)
    (Printf.sprintf "conservation: recycled %d <= retired %d" st.I.recycled
       st.I.retires)
    true
    (st.I.recycled <= st.I.retires);
  let retired = Oa_obs.Sink.total sink Oa_obs.Event.Retire in
  let reclaimed = Oa_obs.Sink.total sink Oa_obs.Event.Reclaim in
  Alcotest.(check bool) "reclaim <= retire events" true (reclaimed <= retired);
  if reclaims id then
    Alcotest.(check bool) "recycled under pressure" true (st.I.recycled > 0)
  else Alcotest.(check int) "no reclamation recycles nothing" 0 st.I.recycled

(* --- elastic churn: grow, empty, decommit --- *)

let test_elastic_churn id () =
  let module R = (val sim ()) in
  let module Sch = Schemes.Make (R) in
  let module S = (val Sch.pack id) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let n = 192 in
  let tbl =
    H.create ~elastic:true ~chunk_nodes:8 ~capacity:512 ~expected_size:8
      hostile_cfg
  in
  let committed () =
    List.assoc "mem_committed_bytes" (H.A.gauges (H.arena tbl))
  in
  let ctx = H.register tbl in
  let base = committed () in
  for k = 1 to n do
    ignore (H.insert tbl ctx k)
  done;
  let peak = committed () in
  Alcotest.(check bool) "growth mapped new chunks" true (peak > base);
  for k = 1 to n do
    ignore (H.delete tbl ctx k)
  done;
  for k = 1 to n do
    ignore (H.contains tbl ctx k)
  done;
  (* move hazard slots off churned nodes before the final scans *)
  ignore (H.contains tbl ctx 1);
  H.quiesce ctx;
  H.quiesce ctx;
  let post = committed () in
  let st = S.stats (H.smr tbl) in
  Alcotest.(check bool)
    (Printf.sprintf "conservation: recycled %d <= retired %d" st.I.recycled
       st.I.retires)
    true
    (st.I.recycled <= st.I.retires);
  if reclaims id then
    Alcotest.(check bool)
      (Printf.sprintf "decommitted after churn (%d -> %d -> %d)" base peak post)
      true (post < peak)
  else
    Alcotest.(check bool) "no_reclamation holds its mappings" true (post >= peak)

(* --- crash recovery through the WAL checker --- *)

let test_crash id () =
  let o =
    Oa_check.Crash.run
      { Oa_check.Crash.default_config with scheme = id; seeds = 1; groups = 8 }
  in
  (match o.Oa_check.Crash.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "crash recovery: %s" f);
  Alcotest.(check bool) "boundaries checked" true (o.Oa_check.Crash.boundaries > 0);
  Alcotest.(check bool) "torn tails exercised" true (o.Oa_check.Crash.torn > 0)

(* --- the suite, one functor application per scheme --- *)

let suite id =
  let name = Schemes.id_name id in
  ( name,
    [
      Alcotest.test_case "conservation + quiesce (tight arena)" `Quick
        (test_tight_churn id);
      Alcotest.test_case "reclaims on an allocation stall" `Quick
        (test_tight_churn ~cfg:stall_cfg id);
      Alcotest.test_case "elastic churn decommits" `Quick
        (test_elastic_churn id);
      Alcotest.test_case "crash recovery" `Quick (test_crash id);
    ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_sequential id; prop_differential id ] )

let () =
  Alcotest.run "scheme_conformance" (List.map suite Schemes.all_ids)
