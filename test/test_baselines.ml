(* Unit tests for the baseline schemes: NoRecl, HP, EBR, Anchors. *)

module Ptr = Oa_mem.Ptr
module I = Oa_core.Smr_intf
module CM = Oa_simrt.Cost_model

let cfg =
  {
    I.default_config with
    I.chunk_size = 4;
    retire_threshold = 8;
    epoch_threshold = 4;
    anchor_interval = 10;
  }

let make () = Oa_runtime.Sim_backend.make ~max_threads:8 CM.amd_opteron

(* --- NoRecl --- *)

let test_norecl_never_recycles () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_smr.No_recl.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:32 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  let seen = Hashtbl.create 32 in
  (* every allocation is a fresh node even though we retire them all *)
  (try
     while true do
       let p = S.alloc ctx in
       Alcotest.(check bool) "never reused" false
         (Hashtbl.mem seen (Ptr.index p));
       Hashtbl.replace seen (Ptr.index p) ();
       S.retire ctx p
     done
   with I.Arena_exhausted -> ());
  Alcotest.(check int) "exhausted after capacity" 32 (Hashtbl.length seen);
  Alcotest.(check int) "nothing recycled" 0 (S.stats mm).I.recycled

let test_norecl_barriers_free () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_smr.No_recl.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:8 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  let c = A.field arena (Ptr.of_index 0) 0 in
  R.write c 9;
  Alcotest.(check int) "read passes through" 9 (S.read_ptr ctx ~hp:0 c);
  S.check ctx;
  Alcotest.(check int) "no fences ever" 0 (S.stats mm).I.fences

(* --- Hazard pointers --- *)

let test_hp_protect_publishes () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_smr.Hazard_pointers.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:16 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  let target = Ptr.of_index 7 in
  let c = A.field arena (Ptr.of_index 0) 1 in
  R.write c (Ptr.mark target);
  let v = S.read_ptr ctx ~hp:1 c in
  Alcotest.(check int) "value returned as stored" (Ptr.mark target) v;
  Alcotest.(check int) "unmarked target published in slot 1" target
    (R.read ctx.S.hps.(1));
  Alcotest.(check bool) "a fence was paid" true ((S.stats mm).I.fences > 0)

let test_hp_null_needs_no_protection () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_smr.Hazard_pointers.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:16 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  let c = A.field arena (Ptr.of_index 0) 1 in
  R.write c Ptr.null;
  ignore (S.read_ptr ctx ~hp:0 c);
  Alcotest.(check int) "no fence for null" 0 (S.stats mm).I.fences

let test_hp_validation_rereads () =
  (* if the cell changes between publish and validation, the loop must
     return the new value with the new value protected; we simulate the
     race by changing the cell from another logical thread mid-protocol.
     With quantum 0 every access interleaves, so run many iterations of a
     mutator against a reader and check the invariant posthoc. *)
  let r = Oa_runtime.Sim_backend.make ~seed:3 ~max_threads:2 CM.amd_opteron in
  let module R = (val r) in
  let module S = Oa_smr.Hazard_pointers.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:16 ~n_fields:2 in
  let mm = S.create arena cfg in
  let c = A.field arena (Ptr.of_index 0) 1 in
  R.write c (Ptr.of_index 1);
  let ok = ref true in
  R.par_run ~n:2 (fun tid ->
      let ctx = S.register mm in
      if tid = 0 then
        for _ = 1 to 200 do
          let v = S.read_ptr ctx ~hp:0 c in
          (* the protected slot must cover the returned value *)
          if
            (not (Ptr.is_null v))
            && R.read ctx.S.hps.(0) <> Ptr.unmark v
          then ok := false
        done
      else
        for i = 2 to 100 do
          R.write c (Ptr.of_index i)
        done);
  Alcotest.(check bool) "returned value always protected" true !ok

(* The batch carry: two consecutive operations reading the same cell
   into slot 0.  Outside a batch each read publishes and fences; inside
   [run_batch] the second finds its target still published by the first
   and skips the fence. *)
let test_hp_batch_carry () =
  let fences ~batched =
    let r = make () in
    let module R = (val r) in
    let module S = Oa_smr.Hazard_pointers.Make (R) in
    let module A = Oa_mem.Arena.Make (S.R) in
    let arena = A.create ~capacity:16 ~n_fields:2 in
    let mm = S.create arena cfg in
    let ctx = S.register mm in
    let c = A.field arena (Ptr.of_index 0) 1 in
    R.write c (Ptr.of_index 7);
    let op _ =
      S.op_begin ctx;
      ignore (S.read_ptr ctx ~hp:0 c);
      S.op_end ctx
    in
    if batched then S.run_batch ctx 2 op
    else begin
      op 0;
      op 1
    end;
    (S.stats mm).I.fences
  in
  Alcotest.(check int) "per-op: a fence per read" 2 (fences ~batched:false);
  Alcotest.(check int) "batched: the second read carries" 1
    (fences ~batched:true)

let test_hp_scan_frees_unprotected_only () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_smr.Hazard_pointers.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:32 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  let protected_node = S.alloc ctx in
  let others = List.init 10 (fun _ -> S.alloc ctx) in
  (* protect via a read slot *)
  let c = A.field arena (Ptr.of_index 30) 1 in
  R.write c protected_node;
  ignore (S.read_ptr ctx ~hp:0 c);
  (* the scan triggers at the 8th retire: 7 unprotected nodes freed, the
     protected one kept in the buffer *)
  S.retire ctx protected_node;
  List.iter (S.retire ctx) others;
  Alcotest.(check bool) "scan ran" true ((S.stats mm).I.phases > 0);
  Alcotest.(check int) "all but the protected node freed" 7
    (S.stats mm).I.recycled;
  (* the protected node is never handed back while the slot covers it *)
  let clash = ref false in
  for _ = 1 to 12 do
    let p = S.alloc ctx in
    if Ptr.index p = Ptr.index protected_node then clash := true;
    S.retire ctx p
  done;
  Alcotest.(check bool) "protected node withheld" false !clash;
  (* release the slot; subsequent scans free it *)
  R.write ctx.S.hps.(0) (-1);
  let got_it = ref false in
  for _ = 1 to 40 do
    let p = S.alloc ctx in
    if Ptr.index p = Ptr.index protected_node then got_it := true;
    S.retire ctx p
  done;
  Alcotest.(check bool) "protected node freed after release" true !got_it

(* --- EBR --- *)

let test_ebr_two_epoch_grace () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_smr.Ebr.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  (* retire inside an operation; the node must survive at least until the
     epoch advances twice *)
  S.op_begin ctx;
  let p = S.alloc ctx in
  S.retire ctx p;
  S.op_end ctx;
  Alcotest.(check int) "not freed immediately" 0 (S.stats mm).I.recycled;
  (* cycle operations so the epoch advances and old buckets are freed *)
  for _ = 1 to 40 do
    S.op_begin ctx;
    S.retire ctx (S.alloc ctx);
    S.op_end ctx
  done;
  Alcotest.(check bool) "eventually freed" true ((S.stats mm).I.recycled > 0);
  Alcotest.(check bool) "epoch advanced" true ((S.stats mm).I.phases > 0)

let test_ebr_stuck_thread_blocks_reclamation () =
  (* the anti-property the paper holds against EBR, as a regression test *)
  let r = make () in
  let module R = (val r) in
  let module S = Oa_smr.Ebr.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:32 ~n_fields:2 in
  let mm = S.create arena cfg in
  let starved = ref false in
  R.par_run ~n:2 (fun tid ->
      let ctx = S.register mm in
      if tid = 0 then begin
        S.op_begin ctx;
        R.stall 100_000_000
        (* never calls op_end: pins the epoch *)
      end
      else begin
        R.stall 1_000;
        try
          for _ = 1 to 200 do
            S.op_begin ctx;
            S.retire ctx (S.alloc ctx);
            S.op_end ctx
          done
        with I.Arena_exhausted -> starved := true
      end);
  Alcotest.(check bool) "worker starved behind the stuck reader" true !starved

let test_ebr_inactive_thread_does_not_block () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_smr.Ebr.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:32 ~n_fields:2 in
  let mm = S.create arena cfg in
  let completed = ref false in
  R.par_run ~n:2 (fun tid ->
      let ctx = S.register mm in
      if tid = 0 then
        (* registered but idle: must not pin the epoch *)
        R.stall 100_000_000
      else begin
        R.stall 1_000;
        for _ = 1 to 200 do
          S.op_begin ctx;
          S.retire ctx (S.alloc ctx);
          S.op_end ctx
        done;
        completed := true
      end);
  Alcotest.(check bool) "worker unaffected by idle thread" true !completed

(* --- Anchors --- *)

let test_anchors_posts_every_k_reads () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_smr.Anchors.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:16 ~n_fields:2 in
  let mm = S.create arena cfg in
  let ctx = S.register mm in
  S.op_begin ctx;
  let c = A.field arena (Ptr.of_index 0) 1 in
  R.write c (Ptr.of_index 3);
  for _ = 1 to cfg.I.anchor_interval - 1 do
    ignore (S.read_ptr ctx ~hp:0 c)
  done;
  Alcotest.(check int) "no anchor yet" (-1) (R.read ctx.S.anchor);
  Alcotest.(check int) "no fence yet" 0 (S.stats mm).I.fences;
  ignore (S.read_ptr ctx ~hp:0 c);
  Alcotest.(check int) "anchor posted at the K-th read" (Ptr.of_index 3)
    (R.read ctx.S.anchor);
  Alcotest.(check int) "exactly one fence" 1 (S.stats mm).I.fences

let test_anchors_walk_protects_successors () =
  let r = make () in
  let module R = (val r) in
  let module S = Oa_smr.Anchors.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  (* a chain n0 -> n1 -> n2 through field 1 *)
  S.set_successor mm (fun p -> Ptr.unmark (R.read (A.field arena p 1)));
  let reader = S.register mm in
  let reclaimer = S.register mm in
  let n0 = S.alloc reclaimer and n1 = S.alloc reclaimer and n2 = S.alloc reclaimer in
  A.write arena n0 1 n1;
  A.write arena n1 1 n2;
  A.write arena n2 1 Ptr.null;
  (* the reader keeps re-anchoring on n0 (so the grace condition passes)
     while the reclaimer retires the chain plus unrelated nodes across
     several scans; the chain stays within K of the live anchor *)
  S.op_begin reader;
  let c = A.field arena (Ptr.of_index 60) 1 in
  R.write c n0;
  S.retire reclaimer n0;
  S.retire reclaimer n1;
  S.retire reclaimer n2;
  for _ = 1 to 4 do
    for _ = 1 to cfg.I.anchor_interval do
      ignore (S.read_ptr reader ~hp:0 c)
    done;
    Alcotest.(check int) "anchored on n0" n0 (R.read reader.S.anchor);
    for _ = 1 to cfg.I.retire_threshold do
      S.retire reclaimer (S.alloc reclaimer)
    done
  done;
  let st = S.stats mm in
  Alcotest.(check bool) "scans ran" true (st.I.phases > 1);
  Alcotest.(check bool) "other nodes freed" true (st.I.recycled > 0);
  (* the chain nodes were never handed back by the allocator *)
  let chain = [ Ptr.index n0; Ptr.index n1; Ptr.index n2 ] in
  let clash = ref false in
  for _ = 1 to 20 do
    let p = S.alloc reclaimer in
    if List.mem (Ptr.index p) chain then clash := true;
    S.retire reclaimer p
  done;
  Alcotest.(check bool) "anchored chain not recycled" false !clash

let test_anchors_grace_requires_advance () =
  (* nothing is freed while some thread stays active without re-anchoring *)
  let r = make () in
  let module R = (val r) in
  let module S = Oa_smr.Anchors.Make (R) in
  let module A = Oa_mem.Arena.Make (S.R) in
  let arena = A.create ~capacity:64 ~n_fields:2 in
  let mm = S.create arena cfg in
  let frozen = S.register mm in
  let reclaimer = S.register mm in
  S.op_begin frozen;
  (* [frozen] stays active at the same seq forever *)
  for _ = 1 to 3 do
    for _ = 1 to cfg.I.retire_threshold do
      S.retire reclaimer (S.alloc reclaimer)
    done
  done;
  Alcotest.(check int) "nothing freed under a frozen peer" 0
    (S.stats mm).I.recycled;
  (* once it finishes its operation, reclamation resumes *)
  S.op_end frozen;
  for _ = 1 to 2 do
    for _ = 1 to cfg.I.retire_threshold do
      S.retire reclaimer (S.alloc reclaimer)
    done
  done;
  Alcotest.(check bool) "freed after grace" true ((S.stats mm).I.recycled > 0)

let () =
  Alcotest.run "baselines"
    [
      ( "norecl",
        [
          Alcotest.test_case "never recycles" `Quick test_norecl_never_recycles;
          Alcotest.test_case "barriers free" `Quick test_norecl_barriers_free;
        ] );
      ( "hazard pointers",
        [
          Alcotest.test_case "protect publishes" `Quick test_hp_protect_publishes;
          Alcotest.test_case "null unprotected" `Quick
            test_hp_null_needs_no_protection;
          Alcotest.test_case "validation re-reads" `Quick
            test_hp_validation_rereads;
          Alcotest.test_case "scan frees unprotected only" `Quick
            test_hp_scan_frees_unprotected_only;
          Alcotest.test_case "batch carries a validated hazard" `Quick
            test_hp_batch_carry;
        ] );
      ( "ebr",
        [
          Alcotest.test_case "two-epoch grace" `Quick test_ebr_two_epoch_grace;
          Alcotest.test_case "stuck thread blocks reclamation" `Quick
            test_ebr_stuck_thread_blocks_reclamation;
          Alcotest.test_case "idle thread does not block" `Quick
            test_ebr_inactive_thread_does_not_block;
        ] );
      ( "anchors",
        [
          Alcotest.test_case "posts every K reads" `Quick
            test_anchors_posts_every_k_reads;
          Alcotest.test_case "walk protects successors" `Quick
            test_anchors_walk_protects_successors;
          Alcotest.test_case "grace requires advance" `Quick
            test_anchors_grace_requires_advance;
        ] );
    ]
