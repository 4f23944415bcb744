(* The elastic allocator's acceptance workload: grow-then-shrink churn on
   the flat real backend.

   A hash table backed by the elastic arena is prefilled (the baseline),
   then grown by inserting ten times the old fixed-arena default budget
   (Experiment.default_spec: prefill 1000 + delta 16_000 + 8 ~ 17k nodes,
   so ~170k churned nodes), then emptied and quiesced.  Assertions:

   - the run completes — under the fixed arena this workload would raise
     [Arena_exhausted] many times over;
   - the allocator's own committed-bytes gauge returns to the baseline
     (plus a few chunks of slop for the open tip chunk and slots parked
     in the scheme's thread-local pool chunk);
   - process RSS after the delete+quiesce is within 25% of the
     post-prefill baseline: fully-free chunks really were handed back to
     the OS, not merely recorded as free;
   - retire/reclaim conservation holds across the whole cycle.

   The table's buckets are sized for the peak live set (with headroom),
   as a deployment expecting that churn would size them; sentinels are
   live for the whole run and belong to the baseline. *)

module Ptr = Oa_mem.Ptr
module I = Oa_core.Smr_intf
module CM = Oa_simrt.Cost_model

let old_default_capacity = 1_000 + 16_000 + 8
let churn = 10 * old_default_capacity
let prefill = 20_000

(* Fill the calling domain's minor heap once over with garbage, so every
   one of its pages is resident. *)
let touch_minor_heap () =
  for _ = 1 to (Gc.get ()).Gc.minor_heap_size do
    ignore (Sys.opaque_identity (ref 0))
  done

(* Resident set with the runtime's fixed reservations held constant: the
   minor heaps of the main domain and of the worker domain slot every
   [par_run] reuses are made fully resident first, so the two samples
   differ only by what the phases in between mapped or returned (the
   arena's chunks, the OCaml major heap).  Without this a phase that
   allocates little on the minor heap samples low, by up to one minor
   heap per domain. *)
let rss_sample par_run =
  par_run touch_minor_heap;
  touch_minor_heap ();
  Gc.compact ();
  Oa_runtime.Sysinfo.rss_bytes ()

let test_grow_shrink_churn () =
  let module R = (val Oa_runtime.Real_backend.make ~max_threads:2 ()) in
  let module S = Oa_smr.Hazard_pointers.Make (R) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let cfg =
    { I.default_config with I.chunk_size = 16; hp_slots = 3; max_cas = 1;
      retire_threshold = 64 }
  in
  let tbl =
    H.create ~elastic:true ~chunk_nodes:4096 ~capacity:churn
      ~expected_size:250_000 cfg
  in
  let committed () =
    List.assoc "mem_committed_bytes" (H.A.gauges (H.arena tbl))
  in
  let ctx = ref None in
  let phase f =
    R.par_run ~n:1 (fun _ ->
        let c =
          match !ctx with
          | Some c -> c
          | None ->
              let c = H.register tbl in
              ctx := Some c;
              c
        in
        f c)
  in
  (* baseline: buckets + prefill live *)
  phase (fun c ->
      for k = 1 to prefill do
        ignore (H.insert tbl c k)
      done;
      H.quiesce c);
  let rss_base = rss_sample (fun f -> R.par_run ~n:1 (fun _ -> f ())) in
  let committed_base = committed () in
  (* grow: ten times the old fixed default *)
  phase (fun c ->
      for k = prefill + 1 to churn do
        ignore (H.insert tbl c k)
      done);
  let committed_peak = committed () in
  (* the churned nodes' bytes under the backend's stride rule: 16 bytes
     a list node, so ~150k churned nodes map ~2.4 MiB *)
  let node_bytes =
    8 * Oa_runtime.Real_backend.node_stride ~nodes:4096 ~fields:2
  in
  Alcotest.(check bool)
    "growth actually mapped new chunks" true
    (committed_peak > committed_base + ((churn - prefill) * node_bytes / 2));
  (* shrink: empty the table.  Deletion only marks (physical unlinking is
     traversal-driven, the paper's proper-retire point in [search]), and at
     this bucket load most buckets are never traversed again — so sweep the
     key space once with [contains] to snip and retire every marked node,
     then quiesce so the scheme's buffers drain and fully-free chunks
     decommit. *)
  phase (fun c ->
      for k = 1 to churn do
        ignore (H.delete tbl c k)
      done;
      for k = 1 to churn do
        ignore (H.contains tbl c k)
      done;
      (* one empty-bucket probe so the hazard slots move off churned
         nodes and onto live sentinels before the final scan *)
      ignore (H.contains tbl c 1);
      H.quiesce c;
      H.quiesce c);
  let rss_post = rss_sample (fun f -> R.par_run ~n:1 (fun _ -> f ())) in
  let committed_post = committed () in
  let chunk_bytes = 4096 * node_bytes in
  (* deterministic view: the allocator's gauge returns to baseline, up to
     the open tip chunk and slots parked in thread-local pool chunks *)
  Alcotest.(check bool)
    (Printf.sprintf "committed returns to baseline (%d -> %d -> %d)"
       committed_base committed_peak committed_post)
    true
    (committed_post <= committed_base + (8 * chunk_bytes));
  (* OS view: resident set within 25% of the post-prefill baseline *)
  if rss_base > 0 then
    Alcotest.(check bool)
      (Printf.sprintf "rss within 25%% of baseline (%.1f -> %.1f MiB)"
         (float_of_int rss_base /. 1048576.)
         (float_of_int rss_post /. 1048576.))
      true
      (rss_post <= rss_base + (rss_base / 4));
  (* conservation across the whole grow/shrink cycle *)
  let st = S.stats (H.smr tbl) in
  Alcotest.(check bool)
    (Printf.sprintf "conservation: recycled %d <= retired %d" st.I.recycled
       st.I.retires)
    true
    (st.I.recycled <= st.I.retires);
  Alcotest.(check int) "every churned node was retired" churn st.I.retires

(* The same cycle on the deterministic simulator, small scale: exact
   conservation of slots through grow, decommit and re-open, checked via
   the committed gauge with no OS in the loop. *)
let test_churn_on_sim () =
  let module R =
    (val Oa_runtime.Sim_backend.make ~max_threads:2 CM.amd_opteron)
  in
  let module S = Oa_smr.Hazard_pointers.Make (R) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let cfg =
    { I.default_config with I.chunk_size = 4; hp_slots = 3; max_cas = 1;
      retire_threshold = 8 }
  in
  let tbl =
    H.create ~elastic:true ~chunk_nodes:8 ~capacity:512 ~expected_size:8 cfg
  in
  let committed () =
    List.assoc "mem_committed_bytes" (H.A.gauges (H.arena tbl))
  in
  let ctx = ref None in
  let phase f =
    R.par_run ~n:1 (fun _ ->
        let c =
          match !ctx with
          | Some c -> c
          | None ->
              let c = H.register tbl in
              ctx := Some c;
              c
        in
        f c)
  in
  let base = committed () in
  phase (fun c ->
      for k = 1 to 256 do
        ignore (H.insert tbl c k)
      done);
  let peak = committed () in
  Alcotest.(check bool) "grew" true (peak > base);
  phase (fun c ->
      for k = 1 to 256 do
        ignore (H.delete tbl c k)
      done;
      for k = 1 to 256 do
        ignore (H.contains tbl c k)
      done;
      ignore (H.contains tbl c 1);
      H.quiesce c;
      H.quiesce c);
  let post = committed () in
  let chunk_bytes =
    8 * 8 * Oa_runtime.Real_backend.node_stride ~nodes:8 ~fields:2
  in
  Alcotest.(check bool)
    (Printf.sprintf "shrank back (%d -> %d -> %d)" base peak post)
    true
    (post <= base + (8 * chunk_bytes));
  let st = S.stats (H.smr tbl) in
  Alcotest.(check bool) "conservation" true (st.I.recycled <= st.I.retires)

let () =
  Alcotest.run "churn"
    [
      ( "elastic",
        [
          Alcotest.test_case "grow/shrink churn (flat, 10x)" `Quick
            test_grow_shrink_churn;
          Alcotest.test_case "grow/shrink churn (sim)" `Quick
            test_churn_on_sim;
        ] );
    ]
