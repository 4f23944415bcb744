(* Unit tests of the optimistic access scheme itself: warning words, hazard
   protection, phase-based recycling (Algorithms 1-6). *)

module Ptr = Oa_mem.Ptr
module I = Oa_core.Smr_intf
module CM = Oa_simrt.Cost_model

let cfg =
  {
    I.default_config with
    I.chunk_size = 4;
    hp_slots = 3;
    max_cas = 2;
  }

(* Fresh runtime + OA instance per test. *)
let make () =
  let r = Oa_runtime.Sim_backend.make ~max_threads:8 CM.amd_opteron in
  r

let test_alloc_returns_zeroed () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  let p = S.alloc ctx in
  Alcotest.(check bool) "non-null" false (Ptr.is_null p);
  Alcotest.(check int) "field 0 zero" 0 (A.read arena p 0);
  Alcotest.(check int) "field 1 zero" 0 (A.read arena p 1);
  A.write arena p 0 7;
  S.dealloc ctx p;
  let p2 = S.alloc ctx in
  (* local pools are LIFO: we get the same node back, zeroed *)
  Alcotest.(check int) "deallocated node reused" (Ptr.index p) (Ptr.index p2);
  Alcotest.(check int) "rezeroed" 0 (A.read arena p2 0)

let test_check_clean_is_noop () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  S.check ctx;
  S.check ctx;
  Alcotest.(check int) "no restarts" 0 (S.stats mm).I.restarts

let test_warning_triggers_restart_and_clears () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  (* set the warning bit the way a reclaimer would *)
  let w = R.read ctx.S.warning in
  Alcotest.(check bool) "set bit" true (R.cas ctx.S.warning w (w lor 1));
  (try
     S.check ctx;
     Alcotest.fail "expected Restart"
   with I.Restart -> ());
  (* the bit is cleared: the next check passes *)
  S.check ctx;
  Alcotest.(check int) "one restart counted" 1 (S.stats mm).I.restarts

let test_read_ptr_restarts_on_warning () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  let cell = A.field arena (Ptr.of_index 0) 0 in
  R.write cell 1234;
  Alcotest.(check int) "clean read" 1234 (S.read_ptr ctx ~hp:0 cell);
  let w = R.read ctx.S.warning in
  ignore (R.cas ctx.S.warning w (w lor 1));
  try
    ignore (S.read_ptr ctx ~hp:0 cell);
    Alcotest.fail "expected Restart"
  with I.Restart -> ()

let test_cas_protects_and_clears () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  let obj = Ptr.of_index 3 and exp = Ptr.of_index 4 and nw = Ptr.of_index 5 in
  let cell = A.field arena obj 1 in
  R.write cell exp;
  let ok =
    S.cas ctx
      {
        I.obj;
        target = cell;
        expected = exp;
        new_value = nw;
        expected_is_ptr = true;
        new_is_ptr = true;
      }
  in
  Alcotest.(check bool) "cas applied" true ok;
  Alcotest.(check int) "value" nw (R.read cell);
  (* write hazard slots are cleared after the CAS (Algorithm 2 line 11) *)
  Array.iteri
    (fun i slot ->
      if i < cfg.I.hp_slots then
        Alcotest.(check int) "slot cleared" (-1) (R.read slot))
    ctx.S.hps;
  Alcotest.(check int) "one fence" 1 (S.stats mm).I.fences

let test_cas_on_warning_restarts_without_casing () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  let cell = A.field arena (Ptr.of_index 0) 0 in
  R.write cell 10;
  let w = R.read ctx.S.warning in
  ignore (R.cas ctx.S.warning w (w lor 1));
  (try
     ignore
       (S.cas ctx
          {
            I.obj = Ptr.of_index 0;
            target = cell;
            expected = 10;
            new_value = 20;
            expected_is_ptr = false;
            new_is_ptr = false;
          });
     Alcotest.fail "expected Restart"
   with I.Restart -> ());
  Alcotest.(check int) "CAS was not attempted" 10 (R.read cell);
  Array.iteri
    (fun i slot ->
      if i < cfg.I.hp_slots then
        Alcotest.(check int) "slots cleared on restart" (-1) (R.read slot))
    ctx.S.hps

let test_protect_descs_dedups () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  let n3 = Ptr.of_index 3 and n4 = Ptr.of_index 4 in
  let d target expected new_value =
    { I.obj = n3; target; expected; new_value;
      expected_is_ptr = true; new_is_ptr = true }
  in
  (* two descs sharing the object and one operand: 3 distinct nodes *)
  let c0 = A.field arena n3 0 and c1 = A.field arena n3 1 in
  S.protect_descs ctx
    { I.descs = [| d c0 n4 (Ptr.mark n4); d c1 n4 n3 |]; len = 2 };
  Alcotest.(check int) "distinct protections only" 2 ctx.S.owner_used;
  let base = cfg.I.hp_slots in
  let slots =
    List.sort compare
      [ R.read ctx.S.hps.(base); R.read ctx.S.hps.(base + 1) ]
  in
  Alcotest.(check (list int)) "protected nodes" [ n3; n4 ] slots;
  S.clear_descs ctx;
  Alcotest.(check int) "cleared" (-1) (R.read ctx.S.hps.(base));
  Alcotest.(check int) "owner count reset" 0 ctx.S.owner_used

let test_empty_descs_no_fence () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  S.protect_descs ctx { I.descs = [||]; len = 0 };
  Alcotest.(check int) "no fence for empty list (paper lines 10/31)" 0
    (S.stats mm).I.fences

(* The full lifecycle: retire nodes, force phases, and observe the nodes
   coming back from the allocator, with the warning set in between. *)
let test_recycle_lifecycle () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:24 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  (* allocate 20 of the 24 nodes *)
  let nodes = List.init 20 (fun _ -> S.alloc ctx) in
  (* retire them all: they flush in chunks of [chunk_size] *)
  List.iter (fun p -> S.retire ctx p) nodes;
  let before = S.stats mm in
  Alcotest.(check int) "all retired" 20 before.I.retires;
  Alcotest.(check int) "nothing recycled yet" 0 before.I.recycled;
  (* further allocations must trigger phases and eventually reuse indices *)
  let reused = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace reused (Ptr.index p) ()) nodes;
  let got_old = ref false in
  for _ = 1 to 16 do
    let p = S.alloc ctx in
    if Hashtbl.mem reused (Ptr.index p) then got_old := true;
    S.retire ctx p
  done;
  Alcotest.(check bool) "retired nodes returned by allocator" true !got_old;
  let st = S.stats mm in
  Alcotest.(check bool) "phases ran" true (st.I.phases > 0);
  Alcotest.(check bool) "objects recycled" true (st.I.recycled > 0);
  (* our own warning was set by the phases we started *)
  Alcotest.(check bool) "warning observed" true
    (st.I.restarts > 0
    ||
    (try
       S.check ctx;
       false
     with I.Restart -> true))

let test_hazard_blocks_recycling () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:24 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  let nodes = List.init 20 (fun _ -> S.alloc ctx) in
  let protected_node = List.hd nodes in
  (* protect one node as the CAS list of an ongoing operation would *)
  S.protect_descs ctx
    {
      I.descs =
        [|
          {
            I.obj = protected_node;
            target = A.field arena protected_node 1;
            expected = 0;
            new_value = 1;
            expected_is_ptr = false;
            new_is_ptr = false;
          };
        |];
      len = 1;
    };
  List.iter (fun p -> S.retire ctx p) nodes;
  (* churn allocations through several phases *)
  for _ = 1 to 30 do
    let p = S.alloc ctx in
    Alcotest.(check bool) "protected node never handed out" false
      (Ptr.index p = Ptr.index protected_node);
    S.retire ctx p
  done;
  (* release the protection; the node must eventually come back *)
  S.clear_descs ctx;
  let got_it = ref false in
  for _ = 1 to 40 do
    let p = S.alloc ctx in
    if Ptr.index p = Ptr.index protected_node then got_it := true;
    S.retire ctx p
  done;
  Alcotest.(check bool) "released node eventually recycled" true !got_it

let test_arena_exhausted_when_nothing_retired () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:8 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  Alcotest.check_raises "exhaustion detected" I.Arena_exhausted (fun () ->
      for _ = 1 to 100 do
        ignore (S.alloc ctx)
      done)

let test_warning_once_per_phase () =
  (* two registered threads; one runs a phase: the second thread's warning
     word must move to the new phase with the bit set, and a second call of
     the reclaimer for the same phase must not set it again after the owner
     cleared it *)
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:32 ~n_fields:2 in
  let mm = S.create arena cfg in
  let reclaimer = S.register mm in
  let observer = S.register mm in
  (* exhaust the bump region and force exactly one phase *)
  let nodes = List.init 24 (fun _ -> S.alloc reclaimer) in
  List.iter (S.retire reclaimer) nodes;
  for _ = 1 to 12 do
    S.retire reclaimer (S.alloc reclaimer)
  done;
  Alcotest.(check bool) "a phase ran" true ((S.stats mm).I.phases > 0);
  (* the observer sees the warning exactly once *)
  let first = try S.check observer; false with I.Restart -> true in
  let second = try S.check observer; false with I.Restart -> true in
  Alcotest.(check bool) "first check restarts" true first;
  Alcotest.(check bool) "second check passes" false second

let test_stats_aggregate_across_threads () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:256 ~n_fields:2 in
  let mm = S.create arena cfg in
  R.par_run ~n:4 (fun _ ->
      let ctx = S.register mm in
      for _ = 1 to 10 do
        let p = S.alloc ctx in
        S.retire ctx p
      done);
  let st = S.stats mm in
  Alcotest.(check int) "allocs from all threads" 40 st.I.allocs;
  Alcotest.(check int) "retires from all threads" 40 st.I.retires

(* Lock-freedom: reclamation proceeds while a thread sits mid-operation
   with stale protection state. *)
let test_stuck_thread_does_not_block () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  let completed = ref 0 in
  R.par_run ~n:2 (fun tid ->
      let ctx = S.register mm in
      if tid = 0 then begin
        S.op_begin ctx;
        ignore (try S.read_ptr ctx ~hp:0 (A.field arena (Ptr.of_index 0) 0)
                with I.Restart -> 0);
        R.stall 100_000_000
      end
      else
        for _ = 1 to 2000 do
          let p = S.alloc ctx in
          S.retire ctx p;
          incr completed
        done);
  Alcotest.(check int) "worker completed all cycles" 2000 !completed;
  Alcotest.(check bool) "recycling happened" true ((S.stats mm).I.recycled > 0)

let () =
  Alcotest.run "oa"
    [
      ( "barriers",
        [
          Alcotest.test_case "alloc zeroed + dealloc reuse" `Quick
            test_alloc_returns_zeroed;
          Alcotest.test_case "clean check" `Quick test_check_clean_is_noop;
          Alcotest.test_case "warning restarts and clears" `Quick
            test_warning_triggers_restart_and_clears;
          Alcotest.test_case "read_ptr restarts" `Quick
            test_read_ptr_restarts_on_warning;
          Alcotest.test_case "cas protects and clears" `Quick
            test_cas_protects_and_clears;
          Alcotest.test_case "cas aborted on warning" `Quick
            test_cas_on_warning_restarts_without_casing;
          Alcotest.test_case "protect_descs dedups" `Quick
            test_protect_descs_dedups;
          Alcotest.test_case "empty descs skip fence" `Quick
            test_empty_descs_no_fence;
        ] );
      ( "recycling",
        [
          Alcotest.test_case "retire/recycle/alloc lifecycle" `Quick
            test_recycle_lifecycle;
          Alcotest.test_case "hazard blocks recycling" `Quick
            test_hazard_blocks_recycling;
          Alcotest.test_case "exhaustion detected" `Quick
            test_arena_exhausted_when_nothing_retired;
          Alcotest.test_case "warning once per phase" `Quick
            test_warning_once_per_phase;
          Alcotest.test_case "stats aggregate" `Quick
            test_stats_aggregate_across_threads;
          Alcotest.test_case "stuck thread does not block" `Quick
            test_stuck_thread_does_not_block;
        ] );
    ]
