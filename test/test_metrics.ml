(* The Oa_obs telemetry subsystem: histogram bucket geometry, snapshot
   merge algebra, and — on the deterministic sim backend — exact event
   counts for the OA scheme, including the conservation law

       retire = reclaim + (nodes still waiting in pools)

   checked against the scheme's internal pool state at quiescence.  The
   real backend gets a smaller smoke test: per-domain recorders merged
   after the join must agree with the scheme's own statistics. *)

module O = Oa_obs
module I = Oa_core.Smr_intf
module CM = Oa_simrt.Cost_model
module E = Oa_harness.Experiment

(* --- events --- *)

let test_event_vocabulary () =
  Alcotest.(check int) "twenty events" 20 O.Event.count;
  List.iter
    (fun ev ->
      Alcotest.(check (option string))
        "to_string/of_string round-trip"
        (Some (O.Event.to_string ev))
        (Option.map O.Event.to_string (O.Event.of_string (O.Event.to_string ev))))
    O.Event.all;
  Alcotest.(check (option string)) "unknown name" None
    (Option.map O.Event.to_string (O.Event.of_string "bogus"));
  (* indices are a permutation of 0..count-1 (they key the count arrays) *)
  let seen = List.sort compare (List.map O.Event.index O.Event.all) in
  Alcotest.(check (list int)) "indices dense" (List.init O.Event.count Fun.id)
    seen

(* --- histogram bucket boundaries --- *)

let test_bucket_boundaries () =
  (* bucket 0 holds exactly the value 0; bucket i holds [2^(i-1), 2^i - 1] *)
  Alcotest.(check int) "0 -> bucket 0" 0 (O.Histogram.bucket_of 0);
  Alcotest.(check int) "1 -> bucket 1" 1 (O.Histogram.bucket_of 1);
  Alcotest.(check int) "2 -> bucket 2" 2 (O.Histogram.bucket_of 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (O.Histogram.bucket_of 3);
  Alcotest.(check int) "4 -> bucket 3" 3 (O.Histogram.bucket_of 4);
  for i = 1 to 62 do
    let lo, hi = O.Histogram.bucket_bounds i in
    Alcotest.(check int) "lower bound in bucket" i (O.Histogram.bucket_of lo);
    Alcotest.(check int) "upper bound in bucket" i (O.Histogram.bucket_of hi);
    if i < 62 then
      Alcotest.(check int)
        "bounds tile the axis: hi+1 opens the next bucket" (i + 1)
        (O.Histogram.bucket_of (hi + 1))
  done;
  (* durations and batch sizes are nonnegative by construction; a negative
     sample is a caller bug and is rejected loudly *)
  Alcotest.check_raises "negative sample rejected"
    (Invalid_argument "Histogram: negative sample") (fun () ->
      ignore (O.Histogram.bucket_of (-5)))

let test_histogram_observe_and_quantiles () =
  let h = O.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (O.Histogram.count h);
  for v = 1 to 100 do
    O.Histogram.observe h v
  done;
  Alcotest.(check int) "count" 100 (O.Histogram.count h);
  Alcotest.(check int) "sum" 5050 (O.Histogram.sum h);
  Alcotest.(check int) "min" 1 h.O.Histogram.min_v;
  Alcotest.(check int) "max" 100 h.O.Histogram.max_v;
  (* quantiles are bucket-resolution estimates but must stay within the
     observed range and be monotone in q *)
  let q50 = O.Histogram.quantile 0.5 h in
  let q90 = O.Histogram.quantile 0.9 h in
  let q99 = O.Histogram.quantile 0.99 h in
  Alcotest.(check bool) "q50 in range" true (q50 >= 1.0 && q50 <= 100.0);
  Alcotest.(check bool) "monotone" true (q50 <= q90 && q90 <= q99);
  Alcotest.(check (float 1e-9)) "q0 is min" 1.0 (O.Histogram.quantile 0.0 h);
  Alcotest.(check (float 1e-9)) "q1 is max" 100.0 (O.Histogram.quantile 1.0 h)

let test_histogram_merge () =
  let a = O.Histogram.create () and b = O.Histogram.create () in
  List.iter (O.Histogram.observe a) [ 1; 5; 200 ];
  List.iter (O.Histogram.observe b) [ 0; 7; 4096 ];
  let m = O.Histogram.merge a b in
  Alcotest.(check int) "merged count" 6 (O.Histogram.count m);
  Alcotest.(check int) "merged sum" (1 + 5 + 200 + 0 + 7 + 4096)
    (O.Histogram.sum m);
  Alcotest.(check int) "merged min" 0 m.O.Histogram.min_v;
  Alcotest.(check int) "merged max" 4096 m.O.Histogram.max_v;
  (* merge is pointwise addition: same multiset of observations either way *)
  Alcotest.(check bool) "commutes" true
    (O.Histogram.equal m (O.Histogram.merge b a));
  (* copy is merge with the empty histogram: a genuine deep copy *)
  let c = O.Histogram.copy a in
  O.Histogram.observe c 1_000_000;
  Alcotest.(check int) "copy is independent" 3 (O.Histogram.count a)

(* --- snapshot merge algebra --- *)

let snap_of f =
  let r = O.Recorder.create () in
  f r;
  O.Snapshot.of_recorder r

let test_snapshot_merge_associative () =
  let a =
    snap_of (fun r ->
        O.Recorder.add r O.Event.Retire 10;
        O.Recorder.observe r "batch" 3)
  in
  let b =
    snap_of (fun r ->
        O.Recorder.add r O.Event.Retire 5;
        O.Recorder.incr r O.Event.Rollback;
        O.Recorder.observe r "batch" 9;
        O.Recorder.observe r "other" 1)
  in
  let c =
    snap_of (fun r ->
        O.Recorder.add r O.Event.Reclaim 7;
        O.Recorder.observe r "other" 100)
  in
  let left = O.Snapshot.merge (O.Snapshot.merge a b) c in
  let right = O.Snapshot.merge a (O.Snapshot.merge b c) in
  Alcotest.(check bool) "associative" true (O.Snapshot.equal left right);
  Alcotest.(check int) "summed counter" 15 (O.Snapshot.get left O.Event.Retire);
  Alcotest.(check bool) "commutative" true
    (O.Snapshot.equal (O.Snapshot.merge a b) (O.Snapshot.merge b a));
  Alcotest.(check bool) "empty is identity" true
    (O.Snapshot.equal a (O.Snapshot.merge O.Snapshot.empty a))

(* --- sink plumbing --- *)

let test_disabled_sink_is_noop () =
  let s = O.Sink.disabled in
  Alcotest.(check bool) "not enabled" false (O.Sink.is_enabled s);
  Alcotest.(check bool) "no recorder handed out" true
    (O.Sink.register s = None);
  Alcotest.(check bool) "empty snapshot" true
    (O.Snapshot.equal O.Snapshot.empty (O.Sink.snapshot s))

let test_sink_merges_recorders () =
  let s = O.Sink.create () in
  (match O.Sink.register s with
  | None -> Alcotest.fail "enabled sink refused a recorder"
  | Some r -> O.Recorder.add r O.Event.Retire 3);
  (match O.Sink.register s with
  | None -> Alcotest.fail "enabled sink refused a recorder"
  | Some r ->
      O.Recorder.add r O.Event.Retire 4;
      O.Recorder.incr r O.Event.Phase_flip);
  let snap = O.Sink.snapshot s in
  Alcotest.(check int) "counters merged" 7 (O.Snapshot.get snap O.Event.Retire);
  Alcotest.(check int) "other counter" 1
    (O.Snapshot.get snap O.Event.Phase_flip)

let test_trace_attachment () =
  let s = O.Sink.create () in
  let evs =
    [
      { O.Snapshot.time = 10; tid = 0; label = "switch" };
      { O.Snapshot.time = 42; tid = 1; label = "switch" };
    ]
  in
  O.Sink.attach_trace s (fun () -> (evs, 5));
  let snap = O.Sink.snapshot s in
  Alcotest.(check int) "events polled" 2 (List.length snap.O.Snapshot.trace);
  Alcotest.(check int) "dropped count" 5 snap.O.Snapshot.trace_dropped

(* --- exporters --- *)

let test_exporters () =
  let snap =
    snap_of (fun r ->
        O.Recorder.add r O.Event.Retire 12;
        O.Recorder.observe r "batch" 4)
  in
  let csv = O.Export.to_csv snap in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "csv header" "name,kind,key,value" (List.hd lines);
  Alcotest.(check bool) "csv counter row" true
    (List.mem "retire,counter,,12" lines);
  let json = O.Export.to_json_lines snap in
  Alcotest.(check bool) "json counter line" true
    (List.mem
       {|{"metric":"retire","kind":"counter","value":12}|}
       (String.split_on_char '\n' (String.trim json)));
  Alcotest.(check string) "json escaping" {|a\"b\\c|}
    (O.Export.json_escape {|a"b\c|})

(* --- sim backend: deterministic counts for the OA scheme --- *)

(* The stale-read scenario of test_stale_read.ml, instrumented: a reader
   stalls holding a pointer while a worker deletes the node and churns the
   allocator through several phases.  Under seed 1 the reader's barrier
   must fire, so the snapshot shows Rollback >= 1. *)
let run_oa_scenario () =
  let sink = O.Sink.create () in
  let r =
    Oa_runtime.Sim_backend.make ~seed:1 ~max_threads:2 CM.amd_opteron
  in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module L = Oa_structures.Linked_list.Make (S) in
  let cfg = { I.default_config with I.chunk_size = 4 } in
  let capacity = 64 in
  let t = L.create ~obs:sink ~capacity cfg in
  R.par_run ~n:2 (fun tid ->
      let ctx = L.register t in
      if tid = 0 then begin
        assert (L.insert ctx 5);
        let victim =
          Oa_mem.Ptr.unmark
            (S.read_ptr ctx.L.sctx ~hp:0 (L.head t))
        in
        R.stall 50_000_000;
        (try ignore (S.read_ptr ctx.L.sctx ~hp:0 (L.key_cell t victim))
         with I.Restart -> ());
        ignore (L.contains ctx 5)
      end
      else begin
        R.stall 1_000_000;
        assert (L.delete ctx 5);
        ignore (L.contains ctx 5);
        for i = 1 to 10 * capacity do
          let k = 100_000 + i in
          assert (L.insert ctx k);
          assert (L.delete ctx k);
          ignore (L.contains ctx k)
        done
      end);
  let mm = L.smr t in
  (* nodes retired but not yet reclaimed sit in the shared retired and
     processing pools or in each thread's private retire chunk *)
  let vp_len p =
    List.fold_left
      (fun acc (c : S.VP.chunk) -> acc + c.S.VP.len)
      0 (S.VP.snapshot p).S.VP.chunks
  in
  let in_pools =
    vp_len mm.S.retired + vp_len mm.S.processing
    + List.fold_left
        (fun acc (ctx : S.ctx) -> acc + ctx.S.retire_chunk.S.VP.len)
        0
        (R.rread mm.S.registry)
  in
  (O.Sink.snapshot sink, S.stats mm, in_pools)

let test_sim_rollback_detected () =
  let snap, stats, _ = run_oa_scenario () in
  Alcotest.(check bool) "rollback recorded" true
    (O.Snapshot.get snap O.Event.Rollback >= 1);
  Alcotest.(check int) "rollbacks agree with scheme stats" stats.I.restarts
    (O.Snapshot.get snap O.Event.Rollback)

let test_sim_conservation () =
  let snap, stats, in_pools = run_oa_scenario () in
  let retire = O.Snapshot.get snap O.Event.Retire in
  let reclaim = O.Snapshot.get snap O.Event.Reclaim in
  Alcotest.(check bool) "something was retired" true (retire > 0);
  Alcotest.(check bool) "something was reclaimed" true (reclaim > 0);
  Alcotest.(check int) "retire = reclaim + in-pools" retire
    (reclaim + in_pools);
  (* telemetry and the scheme's own statistics are two views of the same
     events *)
  Alcotest.(check int) "retire = stats.retires" stats.I.retires retire;
  Alcotest.(check int) "reclaim = stats.recycled" stats.I.recycled reclaim;
  Alcotest.(check int) "phase flips = stats.phases" stats.I.phases
    (O.Snapshot.get snap O.Event.Phase_flip)

let test_sim_deterministic () =
  let snap1, _, _ = run_oa_scenario () in
  let snap2, _, _ = run_oa_scenario () in
  Alcotest.(check bool) "same seed, identical snapshot" true
    (O.Snapshot.equal snap1 snap2)

(* The full experiment harness, sink threaded through Experiment.run:
   identical telemetry on repeated runs, zero rollbacks for a scheme that
   has no read barriers (EBR never restarts). *)
let churn_spec scheme =
  {
    E.default_spec with
    E.structure = E.Linked_list;
    scheme;
    threads = 2;
    prefill = 64;
    mix = Oa_workload.Op_mix.v ~read_pct:50 ~insert_pct:25 ~delete_pct:25;
    total_ops = 20_000;
    delta = 1_200;
    chunk_size = 32;
  }

let test_experiment_sink_oa () =
  let run () =
    let sink = O.Sink.create () in
    let r = E.run ~sink (churn_spec Oa_smr.Schemes.Optimistic_access) in
    (O.Sink.snapshot sink, r)
  in
  let snap, r = run () in
  Alcotest.(check int) "retires" r.E.smr_stats.I.retires
    (O.Snapshot.get snap O.Event.Retire);
  Alcotest.(check int) "reclaims" r.E.smr_stats.I.recycled
    (O.Snapshot.get snap O.Event.Reclaim);
  Alcotest.(check bool) "phases happened" true
    (O.Snapshot.get snap O.Event.Phase_flip > 0);
  let snap', _ = run () in
  Alcotest.(check bool) "deterministic across runs" true
    (O.Snapshot.equal snap snap')

let test_experiment_sink_ebr_no_rollback () =
  let sink = O.Sink.create () in
  let r = E.run ~sink (churn_spec Oa_smr.Schemes.Epoch_based) in
  let snap = O.Sink.snapshot sink in
  Alcotest.(check int) "EBR never rolls back" 0
    (O.Snapshot.get snap O.Event.Rollback);
  Alcotest.(check int) "retires agree" r.E.smr_stats.I.retires
    (O.Snapshot.get snap O.Event.Retire);
  Alcotest.(check bool) "epoch flips recorded" true
    (O.Snapshot.get snap O.Event.Phase_flip > 0)

(* --- real backend: per-domain recorders merged after the join --- *)

let test_real_backend_merged_counts () =
  let sink = O.Sink.create () in
  let spec = { (churn_spec Oa_smr.Schemes.Optimistic_access) with
               E.backend = E.Real; total_ops = 10_000 }
  in
  let r = E.run ~sink spec in
  let snap = O.Sink.snapshot sink in
  (* counts are nondeterministic on real hardware, but the merged
     telemetry must still agree with the scheme's own merged statistics *)
  Alcotest.(check int) "retires agree" r.E.smr_stats.I.retires
    (O.Snapshot.get snap O.Event.Retire);
  Alcotest.(check int) "reclaims agree" r.E.smr_stats.I.recycled
    (O.Snapshot.get snap O.Event.Reclaim);
  Alcotest.(check bool) "something retired" true
    (O.Snapshot.get snap O.Event.Retire > 0)

let () =
  Alcotest.run "metrics"
    [
      ( "vocabulary",
        [ Alcotest.test_case "event round-trips" `Quick test_event_vocabulary ]
      );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "observe and quantiles" `Quick
            test_histogram_observe_and_quantiles;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "merge associativity" `Quick
            test_snapshot_merge_associative;
        ] );
      ( "sink",
        [
          Alcotest.test_case "disabled is no-op" `Quick
            test_disabled_sink_is_noop;
          Alcotest.test_case "merges recorders" `Quick
            test_sink_merges_recorders;
          Alcotest.test_case "trace attachment" `Quick test_trace_attachment;
        ] );
      ( "exporters",
        [ Alcotest.test_case "csv and json" `Quick test_exporters ] );
      ( "sim determinism",
        [
          Alcotest.test_case "rollback detected" `Quick
            test_sim_rollback_detected;
          Alcotest.test_case "retire/reclaim conservation" `Quick
            test_sim_conservation;
          Alcotest.test_case "identical snapshots" `Quick
            test_sim_deterministic;
          Alcotest.test_case "experiment sink (OA)" `Quick
            test_experiment_sink_oa;
          Alcotest.test_case "experiment sink (EBR)" `Quick
            test_experiment_sink_ebr_no_rollback;
        ] );
      ( "real backend",
        [
          Alcotest.test_case "merged counts" `Quick
            test_real_backend_merged_counts;
        ] );
    ]
