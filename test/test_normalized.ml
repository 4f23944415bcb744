(* Tests for the normalized-form driver: the fixed CAS executor and the
   generator / wrap-up restart protocol. *)

module Ptr = Oa_mem.Ptr
module I = Oa_core.Smr_intf
module CM = Oa_simrt.Cost_model

(* Use the NoRecl scheme so no barrier interferes; Restart is injected by
   the test generators themselves.  Everything runs outside par_run, where
   sim-backend accesses are raw — the driver logic is backend-agnostic. *)
module R = (val Oa_runtime.Sim_backend.make ~max_threads:2 CM.amd_opteron)
module S = Oa_smr.No_recl.Make (R)
module A = Oa_mem.Arena.Make (S.R)
module N = Oa_core.Normalized.Make (S)

let arena = A.create ~capacity:64 ~n_fields:2
let smr = S.create arena I.default_config
let ctx = S.register smr

let desc target expected new_value =
  {
    I.obj = Ptr.of_index 0;
    target;
    expected;
    new_value;
    expected_is_ptr = false;
    new_is_ptr = false;
  }

let cas_list descs = { I.descs = descs; len = Array.length descs }

let test_executor_all_succeed () =
  let c1 = R.cell 1 and c2 = R.cell 2 in
  let failed = N.execute (cas_list [| desc c1 1 10; desc c2 2 20 |]) in
  Alcotest.(check int) "none failed" N.none_failed failed;
  Alcotest.(check int) "c1" 10 (R.read c1);
  Alcotest.(check int) "c2" 20 (R.read c2)

let test_executor_stops_at_failure () =
  let c1 = R.cell 1 and c2 = R.cell 2 and c3 = R.cell 3 in
  let failed =
    N.execute (cas_list [| desc c1 1 10; desc c2 99 20; desc c3 3 30 |])
  in
  Alcotest.(check int) "index of failed CAS" 1 failed;
  Alcotest.(check int) "c1 executed" 10 (R.read c1);
  Alcotest.(check int) "c2 untouched" 2 (R.read c2);
  Alcotest.(check int) "c3 not attempted" 3 (R.read c3)

let test_executor_empty () =
  Alcotest.(check int) "empty list trivially succeeds" N.none_failed
    (N.execute (cas_list [||]))

(* The driver runs generator and wrap-up functions of an operation context
   and a key; the context here carries the CAS-list buffer, the target
   cell and the auxiliary value a generator leaves for its wrap-up. *)
type op = {
  cl : N.cas_list;
  c : R.cell;
  mutable aux : int;
  mutable gen_runs : int;
  mutable wrap_runs : int;
}

let op () =
  let c = R.cell 0 in
  { cl = N.cas_list ~capacity:2 c; c; aux = 0; gen_runs = 0; wrap_runs = 0 }

(* append a CAS of [c] from [expected] to [new_value] *)
let push o expected new_value =
  let d = o.cl.descs.(o.cl.len) in
  d.target <- o.c;
  d.expected <- expected;
  d.new_value <- new_value;
  o.cl.len <- o.cl.len + 1

let run o ~generator ~wrap_up key = N.run ctx o.cl generator wrap_up o key

let test_driver_happy_path () =
  let o = op () in
  let result =
    run o
      ~generator:(fun o key ->
        push o 0 5;
        o.aux <- key)
      ~wrap_up:(fun o key failed ->
        Alcotest.(check int) "one desc" 1 o.cl.len;
        Alcotest.(check int) "no failure" N.none_failed failed;
        Alcotest.(check int) "aux passed through" 17 o.aux;
        Alcotest.(check int) "key passed through" 17 key;
        42)
      17
  in
  Alcotest.(check int) "result" 42 result;
  Alcotest.(check int) "CAS applied" 5 (R.read o.c)

let test_generator_restart () =
  (* generator raises Restart twice before producing a CAS list *)
  let o = op () in
  let result =
    run o
      ~generator:(fun o _ ->
        o.gen_runs <- o.gen_runs + 1;
        push o 0 7;
        if o.gen_runs < 3 then raise I.Restart)
      ~wrap_up:(fun o _ failed ->
        Alcotest.(check int) "list refilled from empty" 1 o.cl.len;
        if failed = N.none_failed then 1 else 0)
      0
  in
  Alcotest.(check int) "completed" 1 result;
  Alcotest.(check int) "generator ran three times" 3 o.gen_runs;
  Alcotest.(check int) "CAS applied once" 7 (R.read o.c)

let test_wrap_up_restart () =
  (* wrap-up raises Restart; it must be re-run without re-executing CASes *)
  let o = op () in
  let result =
    run o
      ~generator:(fun o _ -> push o 0 1)
      ~wrap_up:(fun o _ _ ->
        o.wrap_runs <- o.wrap_runs + 1;
        if o.wrap_runs < 2 then raise I.Restart;
        R.read o.c)
      0
  in
  Alcotest.(check int) "wrap-up re-ran" 2 o.wrap_runs;
  Alcotest.(check int) "CAS executed exactly once" 1 result

let test_restart_generator_outcome () =
  (* a failed CAS reported by the wrap-up loops back to the generator with
     fresh state, as in Listing 1's RESTART_GENERATOR *)
  let o = op () in
  let result =
    run o
      ~generator:(fun o _ ->
        o.gen_runs <- o.gen_runs + 1;
        let current = R.read o.c in
        push o current (current + 1);
        o.aux <- current)
      ~wrap_up:(fun o _ failed ->
        if failed <> N.none_failed then N.restart_generator
        else if o.aux < 2 then N.restart_generator
        else o.aux)
      0
  in
  Alcotest.(check int) "finished at third observation" 2 result;
  Alcotest.(check int) "generator ran three times" 3 o.gen_runs

let test_aux_recomputed_on_restart () =
  let side = ref [] in
  let o = op () in
  let _ =
    run o
      ~generator:(fun o _ ->
        o.gen_runs <- o.gen_runs + 1;
        side := o.gen_runs :: !side;
        if o.gen_runs < 2 then raise I.Restart;
        o.aux <- o.gen_runs)
      ~wrap_up:(fun o _ _ -> o.aux)
      0
  in
  Alcotest.(check (list int)) "generator effects observed per attempt" [ 2; 1 ]
    !side

let test_empty_desc_list_result () =
  (* an empty CAS list is how "key absent" is reported (Listing 1) *)
  let o = op () in
  let r =
    run o
      ~generator:(fun _ _ -> ())
      ~wrap_up:(fun o _ failed ->
        Alcotest.(check int) "empty list" 0 o.cl.len;
        Alcotest.(check int) "vacuous success" N.none_failed failed;
        0)
      0
  in
  Alcotest.(check int) "reported absent" 0 r

let () =
  Alcotest.run "normalized"
    [
      ( "executor",
        [
          Alcotest.test_case "all succeed" `Quick test_executor_all_succeed;
          Alcotest.test_case "stops at failure" `Quick
            test_executor_stops_at_failure;
          Alcotest.test_case "empty" `Quick test_executor_empty;
        ] );
      ( "driver",
        [
          Alcotest.test_case "happy path" `Quick test_driver_happy_path;
          Alcotest.test_case "generator restart" `Quick test_generator_restart;
          Alcotest.test_case "wrap-up restart" `Quick test_wrap_up_restart;
          Alcotest.test_case "restart-generator outcome" `Quick
            test_restart_generator_outcome;
          Alcotest.test_case "aux recomputed" `Quick
            test_aux_recomputed_on_restart;
          Alcotest.test_case "empty desc list" `Quick
            test_empty_desc_list_result;
        ] );
    ]
