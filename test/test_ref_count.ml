(* Unit tests for the reference-counting extension scheme. *)

module Ptr = Oa_mem.Ptr
module I = Oa_core.Smr_intf
module CM = Oa_simrt.Cost_model

let cfg = { I.default_config with I.chunk_size = 4; hp_slots = 3; max_cas = 2 }

module R = (val Oa_runtime.Sim_backend.make ~max_threads:4 CM.amd_opteron)
module S = Oa_smr.Ref_count.Make (R)
module A = Oa_mem.Arena.Make (S.R)

let fresh () =
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  (arena, mm)

let test_read_acquires_and_releases () =
  let arena, mm = fresh () in
  let ctx = S.register mm in
  let n1 = S.alloc ctx and n2 = S.alloc ctx in
  let cell = A.field arena (Ptr.of_index 60) 0 in
  R.write cell n1;
  ignore (S.read_ptr ctx ~hp:0 cell);
  Alcotest.(check int) "n1 counted" 1 (R.read (S.count_cell mm (Ptr.index n1)));
  (* same slot re-reads the same node without growing the count *)
  ignore (S.read_ptr ctx ~hp:0 cell);
  Alcotest.(check int) "idempotent hold" 1 (R.read (S.count_cell mm (Ptr.index n1)));
  (* slot moves to n2: n1 released *)
  R.write cell n2;
  ignore (S.read_ptr ctx ~hp:0 cell);
  Alcotest.(check int) "n1 released" 0 (R.read (S.count_cell mm (Ptr.index n1)));
  Alcotest.(check int) "n2 counted" 1 (R.read (S.count_cell mm (Ptr.index n2)))

let test_held_node_not_freed () =
  let arena, mm = fresh () in
  let ctx = S.register mm in
  let n1 = S.alloc ctx in
  let cell = A.field arena (Ptr.of_index 60) 0 in
  R.write cell n1;
  ignore (S.read_ptr ctx ~hp:0 cell);
  S.retire ctx n1;
  Alcotest.(check int) "retired but held: not freed" 0
    (S.stats mm).I.recycled;
  (* moving the slot away releases the count and frees the node *)
  R.write cell Ptr.null;
  ignore (S.read_ptr ctx ~hp:0 cell);
  Alcotest.(check int) "freed on release" 1 (S.stats mm).I.recycled

let test_unheld_retire_frees_immediately () =
  let _, mm = fresh () in
  let ctx = S.register mm in
  let n = S.alloc ctx in
  S.retire ctx n;
  Alcotest.(check int) "eager free" 1 (S.stats mm).I.recycled

let test_no_double_free () =
  let arena, mm = fresh () in
  let ctx = S.register mm in
  let n = S.alloc ctx in
  let c1 = A.field arena (Ptr.of_index 60) 0
  and c2 = A.field arena (Ptr.of_index 61) 0 in
  R.write c1 n;
  R.write c2 n;
  ignore (S.read_ptr ctx ~hp:0 c1);
  ignore (S.read_ptr ctx ~hp:1 c2);
  Alcotest.(check int) "two holds" 2 (R.read (S.count_cell mm (Ptr.index n)));
  S.retire ctx n;
  R.write c1 Ptr.null;
  ignore (S.read_ptr ctx ~hp:0 c1);
  Alcotest.(check int) "still held once" 0 (S.stats mm).I.recycled;
  R.write c2 Ptr.null;
  ignore (S.read_ptr ctx ~hp:1 c2);
  Alcotest.(check int) "freed exactly once" 1 (S.stats mm).I.recycled

let test_protect_descs_holds () =
  let arena, mm = fresh () in
  let ctx = S.register mm in
  let n = S.alloc ctx in
  S.protect_descs ctx
    {
      I.descs =
        [|
          {
            I.obj = n;
            target = A.field arena n 1;
            expected = 0;
            new_value = 1;
            expected_is_ptr = false;
            new_is_ptr = false;
          };
        |];
      len = 1;
    };
  Alcotest.(check int) "desc hold" 1 (R.read (S.count_cell mm (Ptr.index n)));
  S.retire ctx n;
  Alcotest.(check int) "protected from free" 0 (S.stats mm).I.recycled;
  S.clear_descs ctx;
  Alcotest.(check int) "freed after clear" 1 (S.stats mm).I.recycled

let test_stale_pair_cancels () =
  (* a late acquire/release pair on a node that was freed and reallocated
     must leave its count unchanged *)
  let _, mm = fresh () in
  let ctx = S.register mm in
  let n = S.alloc ctx in
  let idx = Ptr.index n in
  S.retire ctx n;
  Alcotest.(check int) "freed" 1 (S.stats mm).I.recycled;
  (* simulate a stale reader's increment landing after the free *)
  ignore (R.faa (S.count_cell mm idx) 1);
  (* reallocation does not reset the count *)
  let n' = S.alloc ctx in
  Alcotest.(check int) "same slot reused" idx (Ptr.index n');
  Alcotest.(check int) "transient count visible" 1 (R.read (S.count_cell mm idx));
  (* the stale reader's paired decrement cancels it; node is live so no
     free is attempted *)
  ignore (R.faa (S.count_cell mm idx) (-1));
  Alcotest.(check int) "count balanced" 0 (R.read (S.count_cell mm idx));
  Alcotest.(check int) "nothing freed by the stale pair" 1
    (S.stats mm).I.recycled

let test_concurrent_counts_consistent () =
  let r2 = Oa_runtime.Sim_backend.make ~seed:4 ~max_threads:4 CM.amd_opteron in
  let module R2 = (val r2) in
  let module S2 = Oa_smr.Ref_count.Make (R2) in
  let module A2 = Oa_mem.Arena.Make (S2.R) in
  let arena = A2.create ~capacity:32 ~n_fields:2 in
  let mm = S2.create arena cfg in
  let shared = ref Ptr.null in
  R2.par_run ~n:4 (fun tid ->
      let ctx = S2.register mm in
      if tid = 0 then begin
        let n = S2.alloc ctx in
        shared := n
      end);
  let n = !shared in
  let cell = A2.field arena (Ptr.of_index 30) 0 in
  R2.write cell n;
  R2.par_run ~n:4 (fun _ ->
      let ctx = S2.register mm in
      for _ = 1 to 200 do
        ignore (S2.read_ptr ctx ~hp:0 cell);
        ignore (S2.read_ptr ctx ~hp:1 cell);
        (* drop both holds *)
        R2.write cell n;
        S2.protect_move ctx ~hp:0 n;
        ignore (S2.read_ptr ctx ~hp:0 cell)
      done);
  (* after the run, the count equals the number of slots still holding n:
     at most 2 per thread, and never negative *)
  let count = R2.read (S2.count_cell mm (Ptr.index n)) in
  Alcotest.(check bool) "count sane" true (count >= 0 && count <= 16)

let () =
  Alcotest.run "ref_count"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "acquire/release" `Quick
            test_read_acquires_and_releases;
          Alcotest.test_case "held not freed" `Quick test_held_node_not_freed;
          Alcotest.test_case "eager free" `Quick
            test_unheld_retire_frees_immediately;
          Alcotest.test_case "no double free" `Quick test_no_double_free;
          Alcotest.test_case "desc protection" `Quick test_protect_descs_holds;
          Alcotest.test_case "stale pair cancels" `Quick test_stale_pair_cancels;
          Alcotest.test_case "concurrent counts" `Quick
            test_concurrent_counts_consistent;
        ] );
    ]
