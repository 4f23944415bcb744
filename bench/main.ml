(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Figures 1-8) on the simulated-multicore backend, then runs Bechamel
   microbenchmarks of the per-scheme barrier costs on the real backend.

   Environment knobs:
     OA_BENCH_FIGURES  comma list from {1..8,ablations,metrics,micro}
                       (default: all)
     OA_BENCH_SCALE    multiplier on operation counts (default 1.0)
     OA_BENCH_REPEATS  repetitions per point (default 1; the paper used 20)
     OA_BENCH_THREADS  comma list of thread counts (default 1,2,4,8,16,32,64)
     OA_BENCH_CSV      directory to also dump CSV files into *)

module F = Oa_harness.Figures
module E = Oa_harness.Experiment
module CM = Oa_simrt.Cost_model
module I = Oa_core.Smr_intf

let wanted =
  let spec =
    match Sys.getenv_opt "OA_BENCH_FIGURES" with
    | Some s -> String.split_on_char ',' s
    | None ->
        [ "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8"; "ablations"; "metrics";
          "micro" ]
  in
  fun f -> List.mem f spec

(* --- SMR telemetry demo: the same experiment with and without a sink --- *)

let metrics_demo () =
  Format.printf "@.=== SMR telemetry (Oa_obs) ===@.";
  let spec =
    {
      E.default_spec with
      E.structure = E.Linked_list;
      prefill = 64;
      mix = Oa_workload.Op_mix.v ~read_pct:50 ~insert_pct:25 ~delete_pct:25;
      total_ops = 200_000;
      delta = 2_200;
      chunk_size = 64;
    }
  in
  (* Disabled sink is the default everywhere: this run pays nothing for the
     instrumentation (Sink.register returns None, the hot path is one
     pattern match on an immutable option). *)
  let plain = E.run spec in
  let sink = Oa_obs.Sink.create () in
  let instrumented = E.run ~sink spec in
  Format.printf "throughput: %.3f Mops/s disabled, %.3f Mops/s enabled@."
    (plain.E.throughput /. 1e6)
    (instrumented.E.throughput /. 1e6);
  Oa_harness.Report.metrics ~ppf:Format.std_formatter
    (Oa_obs.Sink.snapshot sink)

(* --- Bechamel microbenchmarks: real backend, single thread --- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  Format.printf "@.=== Microbenchmarks: real backend, single thread ===@.";
  Format.printf "(per-operation latency including each scheme's barriers)@.";
  let module R = (val Oa_runtime.Real_backend.make ()) in
  let module Schemes = Oa_smr.Schemes.Make (R) in
  let cfg_small = { I.default_config with I.chunk_size = 16 } in
  let make_list_test (id, (module S : Schemes.S_with_r)) =
    let module L = Oa_structures.Linked_list.Make (S) in
    let t = L.create ~capacity:4096 cfg_small in
    let ctx = L.register t in
    for k = 1 to 100 do
      ignore (L.insert ctx (2 * k))
    done;
    let i = ref 0 in
    Test.make
      ~name:(Printf.sprintf "list100.contains (%s)" (Oa_smr.Schemes.id_name id))
      (Staged.stage (fun () ->
           i := (!i + 37) mod 200;
           ignore (L.contains ctx !i)))
  in
  let make_update_test (id, (module S : Schemes.S_with_r)) =
    let module H = Oa_structures.Hash_table.Make (S) in
    let t = H.create ~capacity:8192 ~expected_size:512 cfg_small in
    let ctx = H.register t in
    for k = 1 to 512 do
      ignore (H.insert t ctx k)
    done;
    let i = ref 0 in
    Test.make
      ~name:
        (Printf.sprintf "hash.insert+delete (%s)" (Oa_smr.Schemes.id_name id))
      (Staged.stage (fun () ->
           i := (!i + 613) mod 4096;
           let k = 1000 + !i in
           ignore (H.insert t ctx k);
           ignore (H.delete t ctx k)))
  in
  (* Pure batch-boundary cost: [run_batch] over 16 empty bodies, so the
     estimate divided by 16 is the per-op overhead the amortised path
     charges before any structure work — OA's warning absorb, HP's
     carry flag, EBR's single announcement.  This is the quantity the
     batch-16 speedup gate is most sensitive to (docs/performance.md). *)
  let make_batch_test (id, (module S : Schemes.S_with_r)) =
    let module L = Oa_structures.Linked_list.Make (S) in
    let t = L.create ~capacity:1024 cfg_small in
    let ctx = L.register t in
    Test.make
      ~name:
        (Printf.sprintf "run_batch16.empty (%s)" (Oa_smr.Schemes.id_name id))
      (Staged.stage (fun () -> L.run_batch ctx 16 (fun _ -> ())))
  in
  let tests =
    List.map make_list_test Schemes.all
    @ List.map make_update_test Schemes.all
    @ List.map make_batch_test Schemes.all
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Format.printf "%-36s %10.1f ns/run@." name est
          | _ -> Format.printf "%-36s (no estimate)@." name)
        analyzed)
    tests

let () =
  Format.printf "Optimistic Access reproduction benchmarks@.";
  Format.printf "AMD model:  %a@." CM.pp CM.amd_opteron;
  Format.printf "Xeon model: %a@." CM.pp CM.intel_xeon;
  Format.printf "scale=%.2g repeats=%d threads=%s@."
    (match Sys.getenv_opt "OA_BENCH_SCALE" with
    | Some s -> float_of_string s
    | None -> 1.0)
    (match Sys.getenv_opt "OA_BENCH_REPEATS" with
    | Some s -> int_of_string s
    | None -> 1)
    (match Sys.getenv_opt "OA_BENCH_THREADS" with
    | Some s -> s
    | None -> "1,2,4,8,16,32,64");
  let fig1_data = if wanted "1" || wanted "4" then Some (F.fig1 ()) else None in
  (match (wanted "4", fig1_data) with
  | true, Some data -> F.fig4 ~data ()
  | _ -> ());
  if wanted "2" then F.fig2 ();
  if wanted "3" then F.fig3 ();
  let fig5_data = if wanted "5" || wanted "6" then Some (F.fig5 ()) else None in
  (match (wanted "6", fig5_data) with
  | true, Some data -> F.fig6 ~data ()
  | _ -> ());
  if wanted "7" then F.fig7 ();
  if wanted "8" then F.fig8 ();
  if wanted "ablations" then F.ablations ();
  if wanted "metrics" then metrics_demo ();
  if wanted "micro" then micro ();
  Format.printf "@.done.@."
