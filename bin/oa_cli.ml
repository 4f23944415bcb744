(* Command-line interface to the reproduction harness.

   oa_cli figure <1..8|ablations>
                                 regenerate one figure of the paper, or
                                 the ablation tables
   oa_cli run [options]          run a single custom experiment
   oa_cli check [options]        explore schedules for SMR violations
   oa_cli serve [options]        serve the sharded hash table over TCP
                                 (--data-dir makes it durable, --follow
                                 runs it as a read-only replica)
   oa_cli loadgen [options]      drive a server and report latency
   oa_cli ledger-verify [opts]   check a restarted server against a
                                 loadgen acked-write ledger
   oa_cli bench-core [options]   real-backend throughput, batch sweep and
                                 memory curve (BENCH_core.json)
   oa_cli profile [options]      per-phase cycle attribution of the
                                 schemes (BENCH_profile.json)
   oa_cli schemes                list the available SMR schemes *)

module E = Oa_harness.Experiment
module F = Oa_harness.Figures
module CM = Oa_simrt.Cost_model
module Schemes = Oa_smr.Schemes
open Cmdliner

let scheme_conv =
  let parse s =
    match Schemes.id_of_name s with
    | Some id -> Ok id
    | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  let print ppf id = Format.pp_print_string ppf (Schemes.id_name id) in
  Arg.conv (parse, print)

let scheme_list_conv =
  let parse s =
    let names = String.split_on_char ',' s in
    let ids = List.filter_map Schemes.id_of_name names in
    if List.length ids = List.length names && ids <> [] then Ok ids
    else Error (`Msg (Printf.sprintf "bad scheme list %S" s))
  in
  let print ppf ids =
    Format.pp_print_string ppf
      (String.concat "," (List.map Schemes.id_name ids))
  in
  Arg.conv (parse, print)

let structure_conv =
  let parse = function
    | "list" -> Ok E.Linked_list
    | "hash" -> Ok E.Hash_table
    | "skiplist" | "skip" -> Ok E.Skip_list
    | s -> Error (`Msg (Printf.sprintf "unknown structure %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (E.structure_name s) in
  Arg.conv (parse, print)

let mix_conv =
  let parse s =
    match String.split_on_char '/' s with
    | [ r; i; d ] -> (
        try
          Ok
            (Oa_workload.Op_mix.v ~read_pct:(int_of_string r)
               ~insert_pct:(int_of_string i) ~delete_pct:(int_of_string d))
        with _ -> Error (`Msg "mix must be like 80/10/10"))
    | _ -> Error (`Msg "mix must be like 80/10/10")
  in
  Arg.conv (parse, (fun ppf m -> Oa_workload.Op_mix.pp ppf m))

(* --- run --- *)

let run_cmd =
  let structure =
    Arg.(
      value
      & opt structure_conv E.Hash_table
      & info [ "structure"; "s" ] ~docv:"STRUCT"
          ~doc:"Data structure: list, hash or skiplist.")
  in
  let scheme =
    Arg.(
      value
      & opt scheme_conv Schemes.Optimistic_access
      & info [ "scheme"; "m" ] ~docv:"SCHEME"
          ~doc:
            "Memory reclamation scheme: norecl, oa, hp, ebr, anchors, rc \
             or vbr.")
  in
  let threads =
    Arg.(value & opt int 4 & info [ "threads"; "t" ] ~doc:"Thread count.")
  in
  let prefill =
    Arg.(value & opt int 1000 & info [ "prefill"; "p" ] ~doc:"Initial size.")
  in
  let ops =
    Arg.(
      value & opt int 100_000
      & info [ "ops"; "n" ] ~doc:"Total operations across all threads.")
  in
  let mix =
    Arg.(
      value
      & opt mix_conv Oa_workload.Op_mix.read_mostly
      & info [ "mix" ] ~docv:"R/I/D" ~doc:"Operation mix, e.g. 80/10/10.")
  in
  let delta =
    Arg.(
      value & opt int 16_000
      & info [ "delta" ] ~doc:"Arena slack beyond prefill (Figure 3's knob).")
  in
  let chunk =
    Arg.(
      value & opt int 126 & info [ "chunk" ] ~doc:"Local pool chunk size.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let zipf =
    Arg.(
      value
      & opt (some float) None
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:
            "Draw keys from a Zipfian distribution with the given skew in \
             (0,1) instead of uniformly (extension beyond the paper).")
  in
  let repeats =
    Arg.(value & opt int 1 & info [ "repeats" ] ~doc:"Repetitions.")
  in
  let backend =
    let sim cost_model = E.Sim { cost_model; quantum = 128 } in
    Arg.(
      value
      & opt
          (enum
             [
               ("sim", sim CM.amd_opteron);
               ("sim-xeon", sim CM.intel_xeon);
               ("real", E.Real);
             ])
          (sim CM.amd_opteron)
      & info [ "backend" ]
          ~doc:
            "Backend: sim (default), sim-xeon, or real (domains over the \
             flat cache-aligned arena; see docs/performance.md).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Collect SMR-internal telemetry (retire/reclaim volumes, phase \
             flips, rollbacks, pool traffic; see docs/observability.md) and \
             write the merged snapshot to $(docv); $(b,-) writes to stdout. \
             With --repeats, counters accumulate over all repetitions. \
             Telemetry is off — and free — when this flag is absent.")
  in
  let metrics_format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("csv", `Csv); ("json", `Json) ]) `Table
      & info [ "metrics-format" ] ~docv:"FMT"
          ~doc:
            "Snapshot rendering for --metrics: $(b,table) (aligned ASCII), \
             $(b,csv), or $(b,json) (line-delimited).")
  in
  let trace_events =
    Arg.(
      value & opt int 0
      & info [ "trace-events" ] ~docv:"N"
          ~doc:
            "Sim backend only: with --metrics, also dump the last $(docv) \
             scheduler context-switch events alongside the counters.")
  in
  let run structure scheme threads prefill ops mix delta chunk seed zipf
      repeats backend metrics_file metrics_format trace_events =
    let spec =
      {
        E.structure;
        prefill;
        scheme;
        threads;
        mix;
        key_theta = zipf;
        total_ops = ops;
        delta;
        chunk_size = chunk;
        seed;
        backend;
      }
    in
    let sink =
      match metrics_file with
      | None -> Oa_obs.Sink.disabled
      | Some _ -> Oa_obs.Sink.create ()
    in
    let trace =
      match (metrics_file, backend) with
      | Some _, E.Sim _ when trace_events > 0 ->
          Some (Oa_simrt.Trace.create ~capacity:trace_events ())
      | _ -> None
    in
    (match trace with
    | None -> ()
    | Some tr ->
        Oa_obs.Sink.attach_trace sink (fun () ->
            ( List.map
                (fun (e : Oa_simrt.Trace.event) ->
                  {
                    Oa_obs.Snapshot.time = e.Oa_simrt.Trace.time;
                    tid = e.Oa_simrt.Trace.tid;
                    label = e.Oa_simrt.Trace.label;
                  })
                (Oa_simrt.Trace.events tr),
              Oa_simrt.Trace.dropped tr )));
    let results = E.run_repeated ~repeats ~sink ?trace spec in
    let throughputs = List.map (fun r -> r.E.throughput) results in
    let s = Oa_harness.Stats.summary throughputs in
    Format.printf
      "%s/%s threads=%d ops=%d mix=%a: %.3f Mops/s (±%.3f, n=%d)@."
      (E.structure_name structure) (Schemes.id_name scheme) threads ops
      Oa_workload.Op_mix.pp mix
      (s.Oa_harness.Stats.mean /. 1e6)
      (s.Oa_harness.Stats.ci95 /. 1e6)
      s.Oa_harness.Stats.n;
    if s.Oa_harness.Stats.n > 1 then
      Format.printf "  throughput p50=%.3f p90=%.3f p99=%.3f Mops/s@."
        (s.Oa_harness.Stats.median /. 1e6)
        (s.Oa_harness.Stats.p90 /. 1e6)
        (s.Oa_harness.Stats.p99 /. 1e6);
    List.iter
      (fun r ->
        Format.printf "  run: %.3f Mops/s, elapsed %.4fs, final size %d, %a@."
          (r.E.throughput /. 1e6) r.E.elapsed r.E.final_size
          Oa_core.Smr_intf.pp_stats r.E.smr_stats)
      results;
    match metrics_file with
    | None -> ()
    | Some path ->
        let snap = Oa_obs.Sink.snapshot sink in
        let rendered =
          match metrics_format with
          | `Csv -> Oa_obs.Export.to_csv snap
          | `Json -> Oa_obs.Export.to_json_lines snap
          | `Table ->
              Format.asprintf "%a"
                (fun ppf snap -> Oa_harness.Report.metrics ~ppf snap)
                snap
        in
        if path = "-" then (
          Format.printf "@.=== SMR telemetry ===@.";
          print_string rendered)
        else begin
          (try
             let oc = open_out path in
             output_string oc rendered;
             close_out oc
           with Sys_error msg ->
             Format.eprintf "oa_cli: cannot write metrics: %s@." msg;
             exit 1);
          Format.printf "metrics written to %s@." path
        end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a single custom experiment.")
    Term.(
      const run $ structure $ scheme $ threads $ prefill $ ops $ mix $ delta
      $ chunk $ seed $ zipf $ repeats $ backend $ metrics $ metrics_format
      $ trace_events)

(* --- figure --- *)

let figure_cmd =
  let figures =
    [
      ("1", fun () -> F.fig1 ());
      ("2", F.fig2);
      ("3", F.fig3);
      ("4", fun () -> F.fig4 ~data:(F.run_fig1_data ()) ());
      ("5", F.fig5);
      ("6", fun () -> F.fig6 ~data:(F.run_fig5_data ()) ());
      ("7", F.fig7);
      ("8", F.fig8);
      ("ablations", F.ablations);
    ]
  in
  let which =
    Arg.(
      required
      & pos 0 (some (enum figures)) None
      & info [] ~docv:"N"
          ~doc:
            "Figure number, 1-8, or $(b,ablations) for the ablation and \
             extension tables.")
  in
  Cmd.v
    (Cmd.info "figure"
       ~doc:
         "Regenerate one figure of the paper, or the ablations, on the \
          simulated multicore (env: OA_BENCH_SCALE, OA_BENCH_REPEATS, \
          OA_BENCH_THREADS, OA_BENCH_CSV).")
    Term.(const (fun f -> f ()) $ which)

(* --- check --- *)

let check_cmd =
  let module Sc = Oa_check.Scenario in
  let module P = Oa_check.Policy in
  let module Flt = Oa_check.Fault in
  let module X = Oa_check.Explore in
  let module L = Oa_harness.Lincheck in
  let check_scheme_conv =
    let parse s =
      match Sc.scheme_of_name s with
      | Some sch -> Ok sch
      | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
    in
    Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Sc.scheme_name s))
  in
  let structure =
    Arg.(
      value
      & opt structure_conv Sc.default.Sc.structure
      & info [ "structure"; "s" ] ~docv:"STRUCT"
          ~doc:"Data structure: list, hash or skiplist.")
  in
  let scheme =
    Arg.(
      value
      & opt check_scheme_conv Sc.default.Sc.scheme
      & info [ "scheme"; "m" ] ~docv:"SCHEME"
          ~doc:
            "SMR scheme to check: norecl, oa, hp, ebr, anchors, rc, vbr — \
             or a deliberately broken variant the explorer must catch: \
             $(b,broken-hp) (HP with its read-barrier publication removed) \
             or $(b,broken-vbr) (VBR with its version \
             re-validation removed).")
  in
  let threads =
    Arg.(
      value
      & opt int Sc.default.Sc.threads
      & info [ "threads"; "t" ] ~doc:"Thread count.")
  in
  let ops =
    Arg.(
      value
      & opt int Sc.default.Sc.ops_per_thread
      & info [ "ops-per-thread"; "n" ]
          ~doc:
            "Operations per thread (threads x ops + keys must stay within \
             the 62-operation linearizability bound).")
  in
  let keys =
    Arg.(
      value
      & opt int Sc.default.Sc.key_range
      & info [ "keys"; "k" ] ~doc:"Key range: keys are drawn from 1..KEYS.")
  in
  let prefill =
    Arg.(
      value
      & opt int Sc.default.Sc.prefill
      & info [ "prefill"; "p" ]
          ~doc:"Keys 1..PREFILL inserted before the measured run.")
  in
  let mix =
    Arg.(
      value
      & opt mix_conv Sc.default.Sc.mix
      & info [ "mix" ] ~docv:"R/I/D" ~doc:"Operation mix, e.g. 20/40/40.")
  in
  let zipf =
    Arg.(
      value
      & opt (some float) None
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:"Zipfian key skew in (0,1) instead of uniform keys.")
  in
  let batch =
    Arg.(
      value
      & opt int Sc.default.Sc.batch
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Execute each thread's operations in batches of $(docv) through \
             the scheme's batched path (Smr_intf.run_batch); 1 = the \
             per-operation path.")
  in
  let slack =
    Arg.(
      value
      & opt (some int) None
      & info [ "slack" ] ~docv:"N"
          ~doc:
            "Tight arena: size the arena at the live-set ceiling plus \
             $(docv) spare slots, so reclamation phases (and OA \
             warning-bit rollbacks) happen during the run.  Default: \
             generous sizing, no allocation pressure.  Only meaningful \
             for schemes that reclaim (not $(b,none)).")
  in
  let churn =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:
            "Memory-churn mode: back the structure with the elastic arena \
             carved into tiny (8-node) chunks, so every execution crosses \
             chunk boundaries, grows the mapping under pressure and \
             decommits fully-free chunks at quiescence — checking the \
             allocator's grow/shrink protocol under the same adversarial \
             schedules and retire/reclaim conservation oracle.")
  in
  let seeds =
    Arg.(
      value & opt int 100
      & info [ "seeds" ] ~doc:"Seed budget: number of executions to explore.")
  in
  let seed0 =
    Arg.(value & opt int 0 & info [ "seed0" ] ~doc:"First seed of the budget.")
  in
  let policy =
    Arg.(
      value & opt string "random"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Scheduling policy: $(b,random) (random walk over runnable \
             threads), $(b,pct) (priority-based PCT sampler), or $(b,fair) \
             (the default continuation, no reordering).")
  in
  let pct_depth =
    Arg.(
      value & opt int 3
      & info [ "pct-depth" ] ~doc:"Priority change points for --policy pct.")
  in
  let faults =
    Arg.(
      value & opt string "crossing"
      & info [ "faults" ] ~docv:"BATTERY"
          ~doc:
            "Fault battery: $(b,none), $(b,stall) (park a victim across a \
             reclamation phase), $(b,crossing) (hold threads inside read \
             windows until the phase probe ticks), $(b,casdelay) (widen \
             read-to-CAS windows), $(b,batchshift) (short rotating holds \
             that land phase shifts at batch-interior operation \
             boundaries), or $(b,all).")
  in
  let shrink_budget =
    Arg.(
      value & opt int 200
      & info [ "shrink-budget" ]
          ~doc:"Replay budget for minimising a failing schedule; 0 disables.")
  in
  let expect_fail =
    Arg.(
      value & flag
      & info [ "expect-fail" ]
          ~doc:
            "Invert the exit status: succeed only if a violation is found \
             (for CI runs against deliberately broken schemes).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"TOKEN"
          ~doc:
            "Skip exploration and re-execute the given replay token, \
             reporting whether the failure reproduces.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No per-seed progress.")
  in
  let crash_recovery =
    Arg.(
      value & flag
      & info [ "crash-recovery" ]
          ~doc:
            "Check crash-at-batch-boundary recovery instead of schedules: \
             serve rounds of --batch operations through a durable \
             one-shard service, snapshot its data directory after every \
             round, and verify that recovery from \
             each boundary (clean and with an injected torn tail) replays \
             to exactly the sequential model with reclamation conservation \
             intact (docs/persistence.md).  Uses --scheme, --seeds, \
             --seed0, --batch, --keys and --prefill; the schedule-explorer \
             flags are ignored.")
  in
  let print_history history =
    Format.printf "  history:@.";
    List.iter
      (fun (e : L.event) ->
        Format.printf "    [%3d,%3d] t%d %s %d -> %b@." e.L.start_ts e.L.end_ts
          e.L.tid
          (match e.L.kind with
          | L.Contains -> "contains"
          | L.Insert -> "insert"
          | L.Delete -> "delete")
          e.L.key e.L.result)
      history
  in
  let run structure scheme threads ops_per_thread key_range prefill mix theta
      batch arena_slack churn seeds seed0 policy pct_depth faults shrink_budget
      expect_fail replay quiet crash_recovery =
    let finish ~violation =
      exit (if violation <> expect_fail then 1 else 0)
    in
    if crash_recovery then begin
      let scheme_id =
        match scheme with
        | Sc.Real id -> id
        | Sc.Broken_hp | Sc.Broken_vbr ->
            Format.eprintf
              "oa_cli check: --crash-recovery needs a real scheme@.";
            exit 2
      in
      let d = Oa_check.Crash.default_config in
      (* the explorer's tiny defaults (keys 1..2, prefill 2) are not
         interesting recovery states; keep the crash checker's own
         defaults unless the user asked for something else *)
      let kr =
        if key_range = Sc.default.Sc.key_range then
          d.Oa_check.Crash.key_range
        else max 2 key_range
      in
      let pf =
        if prefill = Sc.default.Sc.prefill then d.Oa_check.Crash.prefill
        else prefill
      in
      let cfg =
        {
          d with
          Oa_check.Crash.scheme = scheme_id;
          seeds = min seeds 64;
          seed0;
          batch = (if batch > 1 then batch else d.Oa_check.Crash.batch);
          key_range = kr;
          prefill = min pf kr;
        }
      in
      Format.printf "crash-recovery %s: %d seeds x %d batches of %d, keys \
                     1..%d@."
        (Schemes.id_name scheme_id) cfg.Oa_check.Crash.seeds
        cfg.Oa_check.Crash.groups cfg.Oa_check.Crash.batch
        cfg.Oa_check.Crash.key_range;
      let o = Oa_check.Crash.run cfg in
      Format.printf "%a@." Oa_check.Crash.pp_outcome o;
      if not quiet then
        List.iter (fun f -> Format.printf "  %s@." f)
          o.Oa_check.Crash.failures;
      finish ~violation:(o.Oa_check.Crash.failures <> [])
    end;
    let sc =
      {
        Sc.structure;
        scheme;
        threads;
        ops_per_thread;
        key_range;
        prefill;
        mix;
        theta;
        batch;
        arena_slack;
        elastic = churn;
        seed = seed0;
      }
    in
    match replay with
    | Some token -> (
        match Oa_check.Token.replay token with
        | Error msg ->
            Format.eprintf "oa_cli check: %s@." msg;
            exit 2
        | Ok (sc, outcome) -> (
            match outcome.Sc.result with
            | Ok () ->
                Format.printf
                  "replay of %s/%s seed=%d: no violation (%d scheduler \
                   decisions)@."
                  (E.structure_name sc.Sc.structure)
                  (Sc.scheme_name sc.Sc.scheme)
                  sc.Sc.seed outcome.Sc.steps;
                finish ~violation:false
            | Error f ->
                Format.printf "replay of %s/%s seed=%d: %a@."
                  (E.structure_name sc.Sc.structure)
                  (Sc.scheme_name sc.Sc.scheme)
                  sc.Sc.seed Sc.pp_failure_kind f.Sc.kind;
                if not quiet then print_history f.Sc.history;
                finish ~violation:true))
    | None -> (
        let policy =
          match P.base_of_name ~pct_depth policy with
          | Some p -> p
          | None ->
              Format.eprintf "oa_cli check: unknown policy %S@." policy;
              exit 2
        in
        let faults =
          match Flt.specs_of_name ~threads faults with
          | Some f -> f
          | None ->
              Format.eprintf "oa_cli check: unknown fault battery %S@." faults;
              exit 2
        in
        let progress seed ~failed =
          if (not quiet) && (failed || (seed - seed0 + 1) mod 50 = 0) then
            Format.printf "  seed %d: %s@." seed
              (if failed then "VIOLATION" else "clean so far")
        in
        Format.printf "checking %s/%s: %d threads x %d ops, keys 1..%d, %a, \
                       policy=%s, faults=%s, %d seeds from %d@."
          (E.structure_name sc.Sc.structure)
          (Sc.scheme_name sc.Sc.scheme)
          threads ops_per_thread key_range Oa_workload.Op_mix.pp mix
          (P.base_name policy)
          (String.concat "+" (List.map Flt.name faults))
          seeds seed0;
        match
          X.run ~progress ~policy ~faults ~seeds ~seed0 ~shrink_budget sc
        with
        | X.Clean { seeds_tried } ->
            Format.printf "clean: no violation in %d seeded executions@."
              seeds_tried;
            finish ~violation:false
        | X.Unreproducible { seed; token } ->
            Format.eprintf
              "oa_cli check: internal error: seed %d failed but its shrunk \
               token did not reproduce:@.  %s@."
              seed token;
            exit 2
        | X.Failed r ->
            Format.printf "violation at seed %d (%d/%d seeds tried): %a@."
              r.X.seed r.X.seeds_tried seeds Sc.pp_failure_kind r.X.kind;
            Format.printf
              "  schedule shrunk from %d to %d overrides (%d replays)@."
              r.X.overrides_before
              (match Oa_check.Token.decode r.X.token with
              | Ok (_, ovs) -> List.length ovs
              | Error _ -> -1)
              r.X.shrink_replays;
            if not quiet then print_history r.X.history;
            Format.printf "  replay with:@.  oa_cli check --replay \
                           '%s'@." r.X.token;
            finish ~violation:true)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Systematically explore schedules and fault injections for SMR \
          violations (non-linearizable histories, structural corruption, \
          reclamation conservation breaches); shrink and emit a replay \
          token on failure.")
    Term.(
      const run $ structure $ scheme $ threads $ ops $ keys $ prefill $ mix
      $ zipf $ batch $ slack $ churn $ seeds $ seed0 $ policy $ pct_depth
      $ faults $ shrink_budget $ expect_fail $ replay $ quiet
      $ crash_recovery)

(* --- serve --- *)

let serve_cmd =
  let module Sv = Oa_net.Service in
  let module Srv = Oa_net.Server in
  let d = Sv.default_config in
  let scheme =
    Arg.(
      value
      & opt scheme_conv d.Sv.scheme
      & info [ "scheme"; "m" ] ~docv:"SCHEME"
          ~doc:
            "SMR scheme for every shard: norecl, oa, hp, ebr, anchors, rc \
             or vbr.")
  in
  let shards =
    Arg.(
      value & opt int d.Sv.shards
      & info [ "shards" ] ~doc:"Independent table partitions.")
  in
  let workers =
    Arg.(
      value
      & opt int d.Sv.workers_per_shard
      & info [ "workers"; "t" ] ~doc:"Worker domains per shard.")
  in
  let port =
    Arg.(
      value & opt int 7440
      & info [ "port" ] ~doc:"Listening port on 127.0.0.1; 0 picks one.")
  in
  let prefill =
    Arg.(
      value & opt int d.Sv.prefill
      & info [ "prefill"; "p" ] ~doc:"Initial size across all shards.")
  in
  let keys =
    Arg.(
      value & opt int d.Sv.key_range
      & info [ "keys"; "k" ] ~doc:"Expected key range 1..KEYS (sizes arenas).")
  in
  let delta =
    Arg.(
      value & opt int d.Sv.delta
      & info [ "delta" ] ~doc:"Arena slack beyond the prefill share, per shard.")
  in
  let chunk =
    Arg.(
      value & opt int d.Sv.chunk_size
      & info [ "chunk" ] ~doc:"Local pool chunk size.")
  in
  let queue_capacity =
    Arg.(
      value
      & opt int d.Sv.queue_capacity
      & info [ "queue-capacity" ]
          ~doc:"Bounded request queue per shard; overflow answers BUSY.")
  in
  let batch =
    Arg.(
      value & opt int d.Sv.dequeue_batch
      & info [ "batch" ] ~doc:"Max requests a worker dequeues at once.")
  in
  let elastic =
    Arg.(
      value & flag
      & info [ "elastic" ]
          ~doc:
            "Back each shard with the elastic chunked arena: no fixed \
             capacity, fully-free chunks returned to the OS (see \
             docs/memory.md).")
  in
  let duration =
    Arg.(
      value & opt float 0.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Shut down gracefully after $(docv); 0 runs until SIGINT/SIGTERM.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the final telemetry snapshot (connection, request, \
             queue-depth and SMR events; see docs/observability.md) as \
             line-delimited JSON to $(docv); $(b,-) writes to stdout.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Make the server durable: per-shard write-ahead logs and \
             checkpoints under $(docv), group-committed per batch and \
             replayed on restart (docs/persistence.md).")
  in
  let segment_bytes =
    Arg.(
      value & opt int d.Sv.segment_bytes
      & info [ "segment-bytes" ]
          ~doc:"WAL segment rotation threshold, per shard.")
  in
  let ckpt_every =
    Arg.(
      value & opt int d.Sv.ckpt_every
      & info [ "ckpt-every" ]
          ~doc:
            "Checkpoint a shard after this many logged records (0 only at \
             shutdown; mid-run checkpoints need --workers 1).")
  in
  let hostport_conv =
    let parse s =
      match String.rindex_opt s ':' with
      | Some i -> (
          let h = String.sub s 0 i
          and p = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt p with
          | Some p when p > 0 && h <> "" -> Ok (h, p)
          | _ -> Error (`Msg "follow address must be HOST:PORT"))
      | None -> Error (`Msg "follow address must be HOST:PORT")
    in
    Arg.conv
      (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)
  in
  let follow =
    Arg.(
      value
      & opt (some hostport_conv) None
      & info [ "follow" ] ~docv:"HOST:PORT"
          ~doc:
            "Run as a read-only replica of the primary at $(docv): stream \
             its WAL records and apply them locally, answering reads; \
             local mutations are refused.  Implies a volatile service \
             (--data-dir and --prefill are ignored).")
  in
  let run scheme shards workers port prefill keys delta chunk queue_capacity
      batch elastic duration metrics data_dir segment_bytes ckpt_every follow =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let following = follow <> None in
    let cfg =
      {
        Sv.scheme;
        shards;
        workers_per_shard = workers;
        prefill = (if following then 0 else prefill);
        key_range = keys;
        delta;
        chunk_size = chunk;
        queue_capacity;
        dequeue_batch = batch;
        seed = 1;
        elastic;
        data_dir = (if following then None else data_dir);
        segment_bytes;
        ckpt_every;
      }
    in
    let service =
      (* a refused arena reservation is a resource limit: say so on one
         line rather than crash *)
      try Sv.create cfg
      with Failure msg ->
        Printf.eprintf "oa_cli serve: %s\n" msg;
        exit 2
    in
    Sv.start service;
    let repl =
      match follow with
      | None -> None
      | Some (fhost, fport) ->
          Some
            (Oa_net.Repl.start ~service
               { Oa_net.Repl.default_config with host = fhost; port = fport })
    in
    let server = Srv.create ~read_only:following ~port ~service () in
    Printf.printf "serving %s x %d shards on 127.0.0.1:%d (prefill=%d)\n%!"
      (Schemes.id_name scheme) shards (Srv.port server) prefill;
    if Sv.persistent service then
      Printf.printf "durable in %s: recovered %d wal records + %d checkpoint \
                     keys\n%!"
        (Option.get data_dir)
        (Sv.recovered_records service)
        (Sv.recovered_ckpt_keys service);
    (match follow with
    | Some (fhost, fport) ->
        Printf.printf "replica of %s:%d (read-only)\n%!" fhost fport
    | None -> ());
    (* Signal handlers only flip a flag; a watcher domain turns the flag —
       or the --duration deadline — into the actual graceful shutdown, so
       no locking happens in async-signal context. *)
    let stop_requested = Atomic.make false in
    let request _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request);
    let watcher =
      Domain.spawn (fun () ->
          let deadline =
            if duration > 0.0 then
              Some
                (Oa_runtime.Clock.now_ns () + int_of_float (duration *. 1e9))
            else None
          in
          let rec wait () =
            if Atomic.get stop_requested then ()
            else if
              match deadline with
              | Some t -> Oa_runtime.Clock.now_ns () >= t
              | None -> false
            then ()
            else begin
              Unix.sleepf 0.05;
              wait ()
            end
          in
          wait ();
          Srv.shutdown server)
    in
    Srv.serve server;
    Atomic.set stop_requested true;
    Domain.join watcher;
    (* Stop the follower before draining the service so no more replicated
       batches are submitted into a stopping service. *)
    (match repl with
    | None -> ()
    | Some r ->
        Oa_net.Repl.stop r;
        Printf.printf "replica applied %d records (+%d snapshot keys) over \
                       %d fetch rounds\n%!"
          (Oa_net.Repl.applied_records r)
          (Oa_net.Repl.snap_keys r) (Oa_net.Repl.rounds r));
    let report = Sv.drain_report service in
    Format.printf "%a@." Sv.pp_report report;
    (match metrics with
    | None -> ()
    | Some path ->
        let rendered =
          Oa_obs.Export.to_json_lines (Oa_obs.Sink.snapshot (Sv.sink service))
        in
        if path = "-" then print_string rendered
        else begin
          let oc = open_out path in
          output_string oc rendered;
          close_out oc;
          Printf.printf "metrics written to %s\n" path
        end);
    if not report.Sv.conservation_ok then begin
      prerr_endline "oa_cli serve: reclamation conservation VIOLATED";
      exit 1
    end;
    match Sv.store_errors service with
    | [] -> ()
    | errors ->
        List.iter
          (fun (i, e) ->
            Printf.eprintf "oa_cli serve: shard %d went read-only: %s\n" i e)
          errors;
        exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the sharded lock-free hash table over TCP (loopback), one \
          SMR scheme instance per shard; graceful shutdown drains in-flight \
          requests, runs a final reclamation pass and reports conservation.")
    Term.(
      const run $ scheme $ shards $ workers $ port $ prefill $ keys $ delta
      $ chunk $ queue_capacity $ batch $ elastic $ duration $ metrics
      $ data_dir $ segment_bytes $ ckpt_every $ follow)

(* --- loadgen --- *)

let loadgen_cmd =
  let module Lg = Oa_net.Loadgen in
  let d = Lg.default_config in
  let host =
    Arg.(value & opt string d.Lg.host & info [ "host" ] ~doc:"Server address.")
  in
  let port =
    Arg.(value & opt int d.Lg.port & info [ "port" ] ~doc:"Server port.")
  in
  let conns =
    Arg.(
      value & opt int d.Lg.conns
      & info [ "conns"; "c" ] ~doc:"Concurrent connections (one domain each).")
  in
  let pipeline =
    Arg.(
      value & opt int d.Lg.pipeline
      & info [ "pipeline" ] ~doc:"Requests kept in flight per connection.")
  in
  let batch =
    Arg.(
      value & opt int d.Lg.batch
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Requests per write group: send each round's pipeline as \
             ceil(pipeline/$(docv)) separate writes so the server's \
             batched execution path sees groups of about $(docv); 0 (the \
             default) sends the whole pipeline in one write.")
  in
  let duration =
    Arg.(
      value & opt float d.Lg.duration
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Run length.")
  in
  let mix =
    Arg.(
      value & opt mix_conv d.Lg.mix
      & info [ "mix" ] ~docv:"R/I/D" ~doc:"Operation mix, e.g. 80/10/10.")
  in
  let keys =
    Arg.(
      value
      & opt int (Oa_workload.Key_dist.range d.Lg.key_dist)
      & info [ "keys"; "k" ] ~doc:"Keys are drawn uniformly from 1..KEYS.")
  in
  let seed = Arg.(value & opt int d.Lg.seed & info [ "seed" ] ~doc:"Seed.") in
  let zipf =
    Arg.(
      value
      & opt (some float) None
      & info [ "zipf" ] ~docv:"THETA"
          ~doc:
            "Draw keys Zipfian with skew $(docv) in (0,1) instead of \
             uniformly.")
  in
  let hot =
    let hot_conv =
      let parse s =
        match String.split_on_char ',' s with
        | [ h; p ] -> (
            match (int_of_string_opt h, int_of_string_opt p) with
            | Some h, Some p when h > 0 && p >= 0 && p <= 100 -> Ok (h, p)
            | _ -> Error (`Msg "hot must be like 100,90 (hot-set,percent)")
            )
        | _ -> Error (`Msg "hot must be like 100,90 (hot-set,percent)")
      in
      Arg.conv (parse, fun ppf (h, p) -> Format.fprintf ppf "%d,%d" h p)
    in
    Arg.(
      value
      & opt (some hot_conv) None
      & info [ "hot" ] ~docv:"H,PCT"
          ~doc:
            "Hot-key skew: $(i,PCT)% of draws land uniformly in 1..$(i,H), \
             the rest in the full range (overridden by --zipf).")
  in
  let ledger =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Write an acked-write ledger to $(docv): per-connection \
             disjoint key subranges, one 'key 0|1' line per key whose \
             final durable presence the run can vouch for (unacked \
             in-flight mutations are excluded).  Verify a restarted \
             server against it with $(b,oa_cli ledger-verify).")
  in
  let json =
    Arg.(
      value & opt string "-"
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable result to $(docv); $(b,-) (the \
             default) writes no file.")
  in
  let run host port conns pipeline batch duration mix keys seed zipf hot
      ledger json =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let key_dist =
      match (zipf, hot) with
      | Some theta, _ -> Oa_workload.Key_dist.zipf ~range:keys ~theta
      | None, Some (h, pct) ->
          Oa_workload.Key_dist.hot ~range:keys ~hot:(min h keys)
            ~hot_pct:pct
      | None, None -> Oa_workload.Key_dist.uniform ~range:keys
    in
    let cfg =
      {
        Lg.host;
        port;
        conns;
        pipeline;
        batch;
        duration;
        mix;
        key_dist;
        seed;
        ledger;
      }
    in
    match Lg.run cfg with
    | Error msg ->
        Printf.eprintf "oa_cli loadgen: %s\n" msg;
        exit 1
    | Ok summary ->
        print_string (Oa_net.Summary.to_table summary);
        if json <> "-" then begin
          Oa_net.Summary.write_json ~path:json summary;
          Printf.printf "wrote %s\n" json
        end;
        if summary.Oa_net.Summary.ops = 0 then begin
          prerr_endline "oa_cli loadgen: no responses received";
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Closed-loop load generator for $(b,oa_cli serve): pipelined \
          batches over concurrent connections, per-response latency with \
          p50/p90/p99, JSON summary.")
    Term.(
      const run $ host $ port $ conns $ pipeline $ batch $ duration $ mix
      $ keys $ seed $ zipf $ hot $ ledger $ json)

(* --- ledger-verify --- *)

(* Compare a (re)started server against a loadgen acked-write ledger: wait
   for the server to answer PING (the wait is the measured recovery time,
   including WAL replay), then GET every ledger key and check presence.
   The CI kill-and-restart smoke is built on this (docs/persistence.md). *)
let ledger_verify_cmd =
  let module P = Oa_net.Protocol in
  let module C = Oa_net.Client in
  let host =
    Arg.(
      value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Server address.")
  in
  let port =
    Arg.(value & opt int 7440 & info [ "port" ] ~doc:"Server port.")
  in
  let ledger =
    Arg.(
      required
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"Ledger written by $(b,oa_cli loadgen --ledger).")
  in
  let timeout =
    Arg.(
      value & opt float 30.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Give up waiting for the server after $(docv).")
  in
  let json =
    Arg.(
      value & opt string "-"
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Append a JSON summary line to $(docv); $(b,-) suppresses it.")
  in
  let run host port ledger timeout json =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* ledger lines: "<key> <0|1>" *)
    let expected =
      let ic = open_in ledger in
      let acc = ref [] in
      (try
         while true do
           match String.split_on_char ' ' (input_line ic) with
           | [ k; p ] -> (
               match (int_of_string_opt k, int_of_string_opt p) with
               | Some k, Some p -> acc := (k, p = 1) :: !acc
               | _ -> ())
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      List.rev !acc
    in
    (* Poll until the server answers PING; elapsed time is the recovery
       wait (process start + WAL replay + checkpoint load). *)
    let t0 = Oa_runtime.Clock.now_ns () in
    let deadline = t0 + int_of_float (timeout *. 1e9) in
    let rec await_up () =
      let attempt () =
        match C.connect ~host ~port () with
        | exception Unix.Unix_error _ -> None
        | client -> (
            match C.call_one client { P.id = 0; op = P.Ping } with
            | Ok { P.body = P.Pong; _ } -> Some client
            | _ ->
                C.close client;
                None)
      in
      match attempt () with
      | Some client -> Some client
      | None ->
          if Oa_runtime.Clock.now_ns () >= deadline then None
          else begin
            Unix.sleepf 0.02;
            await_up ()
          end
    in
    match await_up () with
    | None ->
        Printf.eprintf "oa_cli ledger-verify: server at %s:%d not up within \
                        %.1fs\n"
          host port timeout;
        exit 1
    | Some client ->
        let recovery_wait_s =
          float_of_int (Oa_runtime.Clock.now_ns () - t0) /. 1e9
        in
        (* GET each ledger key, timing every round-trip for the
           post-recovery latency profile. *)
        let lat = Oa_obs.Histogram.create () in
        let mismatches = ref [] in
        let checked = ref 0 in
        List.iter
          (fun (key, want) ->
            let s = Oa_runtime.Clock.now_ns () in
            match C.call_one client { P.id = key; op = P.Get key } with
            | Ok { P.body = P.Bool got; _ } ->
                Oa_obs.Histogram.observe lat
                  (max 0 (Oa_runtime.Clock.now_ns () - s));
                incr checked;
                if got <> want then mismatches := (key, want, got) :: !mismatches
            | Ok { P.body = b; _ } ->
                mismatches := (key, want, not want) :: !mismatches;
                Printf.eprintf "key %d: unexpected %s\n" key
                  (P.body_to_string b)
            | Error e ->
                mismatches := (key, want, not want) :: !mismatches;
                Printf.eprintf "key %d: %s\n" key e)
          expected;
        C.close client;
        let p99 = Oa_obs.Histogram.quantile 0.99 lat in
        let n_bad = List.length !mismatches in
        Printf.printf
          "ledger-verify: %d/%d keys match (recovery wait %.3fs, read p99 \
           %.0f ns)\n"
          (!checked - n_bad) (List.length expected) recovery_wait_s p99;
        List.iteri
          (fun i (k, want, got) ->
            if i < 10 then
              Printf.printf "  MISMATCH key %d: ledger says %s, server says \
                             %s\n"
                k
                (if want then "present" else "absent")
                (if got then "present" else "absent"))
          (List.rev !mismatches);
        if n_bad > 10 then Printf.printf "  ... and %d more\n" (n_bad - 10);
        if json <> "-" then begin
          let oc =
            open_out_gen [ Open_append; Open_creat ] 0o644 json
          in
          Printf.fprintf oc
            "{\"bench\": \"recovery\", \"keys\": %d, \"mismatches\": %d, \
             \"recovery_wait_s\": %.6f, \"read_p50_ns\": %.0f, \
             \"read_p99_ns\": %.0f}\n"
            (List.length expected) n_bad recovery_wait_s
            (Oa_obs.Histogram.quantile 0.5 lat)
            p99;
          close_out oc;
          Printf.printf "appended to %s\n" json
        end;
        if n_bad > 0 || !checked = 0 then exit 1
  in
  Cmd.v
    (Cmd.info "ledger-verify"
       ~doc:
         "Verify a (re)started durable server against a loadgen acked-write \
          ledger: wait for it to come up (measuring recovery time), GET \
          every ledger key, fail on any divergence.")
    Term.(const run $ host $ port $ ledger $ timeout $ json)

(* --- the core workload (bench-core batch sweep, profile) --- *)

let schemes_arg =
  Arg.(
    value
    & opt scheme_list_conv
        Schemes.[ Optimistic_access; Hazard_pointers; Epoch_based ]
    & info [ "schemes" ] ~docv:"LIST"
        ~doc:"Comma-separated SMR schemes (default oa,hp,ebr).")

let prefill_arg =
  Arg.(value & opt int 1_000 & info [ "prefill"; "p" ] ~doc:"Initial size.")

let json_arg default =
  Arg.(
    value & opt string default
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Machine-readable result; $(b,-) suppresses the file.")

(* Write a benchmark's JSON summary unless [path] is "-". *)
let write_json path buf =
  if path <> "-" then begin
    Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf);
    Format.printf "@.wrote %s@." path
  end

(* One run of the core hash-table workload on the real backend, shared
   by bench-core's batch sweep and the profiler so both measure the same
   thing.  The table is prefilled with [prefill] distinct keys from a
   range twice that size; then each of [threads] domains executes
   [per_thread] operations (rounded down to whole batches, at least one)
   of a windowed hot-key stream: every 16 operations draw their keys from
   one 32-key span, read-mostly 60/20/20, identical for every batch size
   at a given tid.  Windows give batches key locality, which is what the
   per-scheme amortisation (HP hazard carry, EBR one announcement, OA one
   warning boundary) feeds on.  [batch = 1] runs the stream per-op;
   larger sizes go through Hash_table.run_batch, in submission order,
   over preallocated parallel kind/key/result arrays — what a server
   worker's [exec_batch] runs — so the delta against per-op is the
   schemes' amortisation, not allocator traffic.
   Per-thread TSC spans are taken on each domain — the same
   same-thread-difference discipline the phase timers use. *)
type core_run = {
  wall_s : float;  (** the timed [par_run], wall clock *)
  thread_cycles : int array;  (** TSC span of each domain's op loop *)
  executed : int;  (** operations over all threads *)
  stats : Oa_core.Smr_intf.stats;
}

let core_workload ?obs ~scheme ~threads ~per_thread ~prefill ~batch () =
  let module R =
    (val Oa_runtime.Real_backend.make ~max_threads:(threads + 1) ())
  in
  let module Sch = Schemes.Make (R) in
  let module S = (val Sch.pack scheme) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let cfg =
    {
      Oa_core.Smr_intf.default_config with
      Oa_core.Smr_intf.chunk_size = 16;
      retire_threshold = 64;
      epoch_threshold = 64;
    }
  in
  let groups = max 1 (per_thread / batch) in
  let per_thread = groups * batch in
  let capacity =
    match scheme with
    | Schemes.No_reclamation -> prefill + (threads * per_thread) + 64
    | _ -> prefill + (48 * 16 * (threads + 1)) + 1_024
  in
  let tbl = H.create ?obs ~capacity ~expected_size:prefill cfg in
  let key_range = 2 * prefill and window = 32 in
  let ctx0 = H.register tbl in
  let rng = Oa_util.Splitmix.create 7 in
  let remaining = ref prefill in
  while !remaining > 0 do
    let k = 1 + Oa_util.Splitmix.below rng key_range in
    if H.insert tbl ctx0 k then decr remaining
  done;
  let thread_cycles = Array.make threads 0 in
  let t0 = Unix.gettimeofday () in
  R.par_run ~n:threads (fun tid ->
      let ctx = H.register tbl in
      let rng = Oa_util.Splitmix.create (1_000 + (tid * 7919)) in
      let base = ref 1 in
      let next i =
        if i mod 16 = 0 then
          base := 1 + Oa_util.Splitmix.below rng (key_range - window);
        let key = !base + Oa_util.Splitmix.below rng window in
        let op =
          match Oa_util.Splitmix.below rng 10 with
          | 0 | 1 | 2 | 3 | 4 | 5 -> `Contains
          | 6 | 7 -> `Insert
          | _ -> `Delete
        in
        (op, key)
      in
      let c0 = Oa_runtime.Clock.tsc () in
      if batch = 1 then
        for i = 0 to per_thread - 1 do
          match next i with
          | `Contains, key -> ignore (H.contains tbl ctx key)
          | `Insert, key -> ignore (H.insert tbl ctx key)
          | `Delete, key -> ignore (H.delete tbl ctx key)
        done
      else begin
        let kinds = Array.make batch `Contains in
        let keys = Array.make batch 0 in
        let results = Array.make batch false in
        for g = 0 to groups - 1 do
          for j = 0 to batch - 1 do
            let op, key = next ((g * batch) + j) in
            kinds.(j) <- op;
            keys.(j) <- key
          done;
          H.run_batch ctx batch (fun i ->
              results.(i) <-
                (match kinds.(i) with
                | `Contains -> H.contains tbl ctx keys.(i)
                | `Insert -> H.insert tbl ctx keys.(i)
                | `Delete -> H.delete tbl ctx keys.(i)))
        done
      end;
      thread_cycles.(tid) <- Oa_runtime.Clock.tsc () - c0;
      H.quiesce ctx);
  {
    wall_s = Unix.gettimeofday () -. t0;
    thread_cycles;
    executed = threads * per_thread;
    stats = S.stats (H.smr tbl);
  }

(* --- bench-core --- *)

(* Multi-domain hash-table throughput on the real backend, the perf
   trajectory the repo tracks across PRs via BENCH_core.json
   (docs/performance.md): a scheme x domain-count sweep, the batched
   execution sweep the perf gate checks, and the elastic allocator's
   memory curve. *)
let bench_core_cmd =
  let int_list_conv ~what =
    let parse s =
      try
        let l = List.map int_of_string (String.split_on_char ',' s) in
        if l = [] || List.exists (fun n -> n <= 0) l then failwith "bad"
        else Ok l
      with _ ->
        Error (`Msg (Printf.sprintf "%s must be like 1,2,4,8" what))
    in
    Arg.conv
      ( parse,
        fun ppf l ->
          Format.pp_print_string ppf
            (String.concat "," (List.map string_of_int l)) )
  in
  let domains =
    Arg.(
      value
      & opt (int_list_conv ~what:"domains") [ 1; 2; 4; 8 ]
      & info [ "domains" ] ~docv:"LIST"
          ~doc:"Comma-separated domain counts (default 1,2,4,8).")
  in
  let ops =
    Arg.(
      value & opt int 200_000
      & info [ "ops"; "n" ] ~doc:"Total operations per point.")
  in
  let repeats =
    Arg.(
      value & opt int 3
      & info [ "repeats" ]
          ~doc:
            "Repetitions per point; the $(b,median) throughput is reported, \
             so a single descheduled run cannot skew a point.")
  in
  let batches =
    Arg.(
      value
      & opt (int_list_conv ~what:"batches") [ 1; 16 ]
      & info [ "batches" ] ~docv:"LIST"
          ~doc:
            "Batch sizes for the batched-execution sweep (default 1,16): \
             the same per-thread op stream is executed per-op (batch 1) \
             or in groups through Hash_table.run_batch, as a server \
             worker runs them, so the deltas isolate the schemes' batch \
             amortisation.")
  in
  let run schemes domains ops prefill repeats batches json =
    let check_conservation what st =
      let open Oa_core.Smr_intf in
      if st.recycled > st.retires then begin
        Format.eprintf
          "bench-core: conservation violated for %s (recycled %d > retired \
           %d)@."
          what st.recycled st.retires;
        exit 1
      end
    in
    (* the machine's real core count, not OCaml's (possibly clamped)
       recommended domain count — readers of the JSON need to know how
       oversubscribed the domain sweep was *)
    let host_cores = Oa_runtime.Sysinfo.nproc () in
    (* Oversubscribed points measure scheduler time-slicing, not
       parallel speedup, so they get a token three runs; the repeat
       budget is spent where it buys stability. *)
    let point scheme n =
      let spec =
        {
          E.default_spec with
          E.structure = E.Hash_table;
          scheme;
          threads = n;
          prefill;
          total_ops = ops;
          seed = 42;
          backend = E.Real;
        }
      in
      let runs =
        List.init
          (if n > host_cores then min repeats 3 else repeats)
          (fun _ -> E.run spec)
      in
      check_conservation
        (Printf.sprintf "%s at %d domains" (Schemes.id_name scheme) n)
        (List.fold_left
           (fun st r -> Oa_core.Smr_intf.add_stats st r.E.smr_stats)
           Oa_core.Smr_intf.empty_stats runs);
      ( Oa_harness.Stats.median (List.map (fun r -> r.E.throughput) runs),
        Oa_harness.Stats.median
          (List.map (fun r -> r.E.minor_words_per_op) runs) )
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"benchmark\": \"core_hash_throughput\",\n";
    Printf.bprintf buf "  \"ops\": %d,\n" ops;
    Printf.bprintf buf "  \"prefill\": %d,\n" prefill;
    Printf.bprintf buf "  \"repeats\": %d,\n" repeats;
    Printf.bprintf buf "  \"host_cores\": %d,\n" host_cores;
    Buffer.add_string buf "  \"points\": [\n";
    Format.printf "hash-table throughput, real backend@.";
    Format.printf
      "(points marked * run more domains than the machine has cores: their \
       numbers measure scheduler interleaving, not parallel speedup)@.";
    Format.printf "%-8s %8s %12s %14s@." "scheme" "domains" "Mops"
      "minor w/op";
    let points =
      List.concat_map
        (fun scheme ->
          List.map
            (fun n ->
              let tp, words = point scheme n in
              Format.printf "%-8s %7d%s %12.3f %14.3f@."
                (Schemes.id_name scheme) n
                (if n > host_cores then "*" else " ")
                (tp /. 1e6) words;
              ((scheme, n), (tp, words)))
            domains)
        schemes
    in
    let mops = List.map (fun (k, (tp, _)) -> (k, tp)) points in
    Buffer.add_string buf
      (String.concat ",\n"
         (List.map
            (fun ((s, n), (tp, words)) ->
              Printf.sprintf
                "    {\"scheme\": \"%s\", \"domains\": %d, \"mops\": %.4f, \
                 \"minor_words_per_op\": %.3f, \"oversubscribed\": %b}"
                (Schemes.id_name s) n (tp /. 1e6) words (n > host_cores))
            points));
    Buffer.add_string buf "\n  ],\n";
    (* Per-scheme allocation on the operation path: the worst domain
       point's minor-heap words per operation (each domain reads its own
       [Gc.minor_words] around its operation loop; the sum over domains
       is divided by the operations).  Oversubscribed points are left out
       unless every point is one, as in the batch gate: their stalled
       threads run extra reclamation scans.  bin/perf_gate.sh holds
       every scheme to at most one word. *)
    let gated =
      match List.filter (fun ((_, n), _) -> n <= host_cores) points with
      | [] -> points
      | l -> l
    in
    Printf.bprintf buf "  \"minor_words_per_op\": {%s},\n"
      (String.concat ", "
         (List.map
            (fun scheme ->
              let worst =
                List.fold_left
                  (fun acc ((s, _), (_, words)) ->
                    if s = scheme then Float.max acc words else acc)
                  0.0 gated
              in
              Printf.sprintf "\"%s\": %.3f" (Schemes.id_name scheme) worst)
            schemes));
    (* The OA-vs-VBR crossover series (EXPERIMENTS.md): per-domain ratio
       of VBR over OA throughput, emitted whenever the sweep measured
       both schemes so future PRs can gate on the crossover not
       regressing.  Oversubscription is flagged as on the points. *)
    if
      List.mem Schemes.Optimistic_access schemes
      && List.mem Schemes.Version_based schemes
    then begin
      Buffer.add_string buf "  \"vbr_over_oa_points\": [\n";
      Buffer.add_string buf
        (String.concat ",\n"
           (List.filter_map
              (fun n ->
                match
                  ( List.assoc_opt (Schemes.Optimistic_access, n) mops,
                    List.assoc_opt (Schemes.Version_based, n) mops )
                with
                | Some oa, Some vbr when oa > 0. ->
                    Some
                      (Printf.sprintf
                         "    {\"domains\": %d, \"ratio\": %.3f, \
                          \"oversubscribed\": %b}"
                         n (vbr /. oa) (n > host_cores))
                | _ -> None)
              domains));
      Buffer.add_string buf "\n  ],\n"
    end;
    (* Batch-size sweep over the core workload: the same per-thread op
       stream, executed per-op or in groups through
       Hash_table.run_batch, so the delta isolates the batched
       path. *)
    let bench_threads =
      min
        (max 1 (Domain.recommended_domain_count ()))
        (min 4 (List.fold_left max 1 domains))
    in
    let sweep_once scheme batch =
      let r =
        core_workload ~scheme ~threads:bench_threads
          ~per_thread:(ops / bench_threads) ~prefill ~batch ()
      in
      (float_of_int r.executed /. r.wall_s, r.stats)
    in
    Format.printf "@.batched execution sweep, %d domains@." bench_threads;
    Format.printf "%-8s %8s %12s %10s@." "scheme" "batch" "Mops" "speedup";
    Buffer.add_string buf "  \"batch_sweep\": {\n";
    Printf.bprintf buf "    \"threads\": %d,\n" bench_threads;
    Printf.bprintf buf "    \"oversubscribed\": %b,\n"
      (bench_threads > host_cores);
    Printf.bprintf buf "    \"key_range\": %d,\n" (2 * prefill);
    Buffer.add_string buf "    \"points\": [\n";
    let bfirst = ref true in
    let speedups = ref [] in
    let max_batch = List.fold_left max 1 batches in
    (* Batch sizes are cycled within each repeat — b1, b16, b1, b16… —
       and the reported speedup is the trimmed mean of the per-repeat
       ratios against the first (control) batch size: a noise episode
       covering one whole per-size block would otherwise fake a
       regression the perf gate acts on. *)
    List.iter
      (fun scheme ->
        let nb = List.length batches in
        let samples = Array.make nb [] in
        let stats = Array.make nb Oa_core.Smr_intf.empty_stats in
        for _ = 1 to repeats do
          List.iteri
            (fun bi b ->
              let tp, st = sweep_once scheme b in
              samples.(bi) <- tp :: samples.(bi);
              stats.(bi) <- Oa_core.Smr_intf.add_stats stats.(bi) st)
            batches
        done;
        List.iteri
          (fun bi b ->
            check_conservation
              (Printf.sprintf "%s at batch %d" (Schemes.id_name scheme) b)
              stats.(bi);
            let tp = Oa_harness.Stats.median samples.(bi) in
            (* same prepend order on both lists, so map2 pairs each
               repeat's measurement with its own control run *)
            let speedup =
              Oa_harness.Stats.trimmed_mean
                (List.map2 (fun t c -> t /. c) samples.(bi) samples.(0))
            in
            if b = max_batch && max_batch > 1 then
              speedups := (scheme, speedup) :: !speedups;
            Format.printf "%-8s %8d %12.3f %9.2fx@." (Schemes.id_name scheme)
              b (tp /. 1e6) speedup;
            if !bfirst then bfirst := false else Buffer.add_string buf ",\n";
            Printf.bprintf buf
              "      {\"scheme\": \"%s\", \"batch\": %d, \"mops\": %.4f, \
               \"speedup\": %.3f}"
              (Schemes.id_name scheme) b (tp /. 1e6) speedup)
          batches)
      schemes;
    Buffer.add_string buf "\n    ],\n";
    Printf.bprintf buf "    \"speedup_at_batch_%d\": {" max_batch;
    Buffer.add_string buf
      (String.concat ", "
         (List.map
            (fun (s, r) -> Printf.sprintf "\"%s\": %.3f" (Schemes.id_name s) r)
            (List.rev !speedups)));
    Buffer.add_string buf "}\n  },\n";
    (* RSS-over-time probe: drive the elastic allocator on the flat
       backend through a full grow/shrink cycle — prefill, grow to 10x,
       delete everything, quiesce — and sample memory at each phase
       boundary.  [committed_bytes] is the allocator's own chunk gauge
       (deterministic); [rss_bytes] is the OS view from /proc.  The
       post-quiesce row landing back near the post-prefill baseline is
       the visible form of the churn test's assertion: fully-free chunks
       really are decommitted back to the OS. *)
    let churn_nodes = 10 * max prefill 20_000 in
    let rss_curve =
      let module R = (val Oa_runtime.Real_backend.make ~max_threads:2 ()) in
      let module Sch = Schemes.Make (R) in
      let module S = (val Sch.pack Schemes.Hazard_pointers) in
      let module H = Oa_structures.Hash_table.Make (S) in
      let cfg =
        {
          Oa_core.Smr_intf.default_config with
          Oa_core.Smr_intf.chunk_size = 16;
          retire_threshold = 64;
        }
      in
      let tbl =
        H.create ~elastic:true ~chunk_nodes:4096 ~capacity:churn_nodes
          ~expected_size:prefill cfg
      in
      let ctx = ref None in
      let phase f =
        (* one worker, re-using a single scheme context across phases so
           its retired buffer survives to the final quiesce *)
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
      let sample name =
        Gc.compact ();
        ( name,
          Oa_runtime.Sysinfo.rss_bytes (),
          match
            List.assoc_opt "mem_committed_bytes" (H.A.gauges (H.arena tbl))
          with
          | Some v -> v
          | None -> 0 )
      in
      phase (fun c ->
          for k = 1 to prefill do
            ignore (H.insert tbl c k)
          done;
          H.quiesce c);
      let s0 = sample "post_prefill" in
      phase (fun c ->
          for k = prefill + 1 to churn_nodes do
            ignore (H.insert tbl c k)
          done);
      let s1 = sample "peak" in
      phase (fun c ->
          for k = 1 to churn_nodes do
            ignore (H.delete tbl c k)
          done);
      let s2 = sample "post_delete" in
      phase (fun c -> H.quiesce c);
      let s3 = sample "post_quiesce" in
      [ s0; s1; s2; s3 ]
    in
    Format.printf "@.elastic memory curve (%d nodes churned)@."
      churn_nodes;
    Format.printf "%-14s %14s %16s@." "phase" "rss MiB" "committed MiB";
    List.iter
      (fun (name, rss, committed) ->
        Format.printf "%-14s %14.1f %16.1f@." name
          (float_of_int rss /. 1048576.)
          (float_of_int committed /. 1048576.))
      rss_curve;
    Buffer.add_string buf "  \"rss_curve\": [\n";
    List.iteri
      (fun i (name, rss, committed) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Printf.bprintf buf
          "    {\"phase\": \"%s\", \"rss_bytes\": %d, \
           \"committed_bytes\": %d}"
          name rss committed)
      rss_curve;
    Buffer.add_string buf "\n  ],\n";
    Buffer.add_string buf "  \"conservation_ok\": true\n}\n";
    write_json json buf
  in
  Cmd.v
    (Cmd.info "bench-core"
       ~doc:
         "Multi-domain hash-table throughput of the real backend per scheme \
          and domain count, the batched-execution sweep, and the elastic \
          memory curve, with a JSON summary (BENCH_core.json).")
    Term.(
      const run $ schemes_arg $ domains $ ops $ prefill_arg $ repeats
      $ batches $ json_arg "BENCH_core.json")

(* --- profile --- *)

(* Cycle attribution: where do the schemes' cycles actually go?  Runs the
   core workload (bench-core's batch sweep) with the phase profiler
   enabled — a sink carrying [Clock.tsc] — per scheme, and writes
   BENCH_profile.json: per-phase sampled-TSC estimates and the traverse
   remainder.
   docs/performance.md explains how to read the output. *)
let profile_cmd =
  let threads =
    Arg.(
      value & opt int 1
      & info [ "threads"; "t" ]
          ~doc:
            "Worker domains.  Default 1: attribution shares are about \
             where one thread's cycles go, and a non-oversubscribed run \
             keeps the TSC samples clean.")
  in
  let ops =
    Arg.(
      value & opt int 200_000
      & info [ "ops"; "n" ] ~doc:"Operations per thread per run.")
  in
  let batch =
    Arg.(
      value & opt int 16
      & info [ "batch"; "b" ]
          ~doc:
            "Batch size for Hash_table.run_batch, called as a server \
             worker calls it; 1 profiles the per-op path instead (no \
             batch_overhead phase).")
  in
  let sample_log2 =
    Arg.(
      value & opt int 4
      & info [ "sample-log2" ]
          ~doc:
            "Time 1 in 2^k phase entries (default 4, i.e. 1/16).  Higher \
             is cheaper but noisier; 0 times every entry and visibly \
             perturbs the run it is measuring.")
  in
  let run schemes threads ops prefill batch sample_log2 json =
    let host_cores = Oa_runtime.Sysinfo.nproc () in
    (* One profiled run.  Total cycles are the per-thread TSC spans
       summed after join, so the traverse remainder [total -
       sum(phases)] is internally consistent with the phase timers. *)
    let one scheme =
      let sink =
        Oa_obs.Sink.create ~profile_clock:Oa_runtime.Clock.tsc
          ~profile_sample_log2:sample_log2 ()
      in
      let r =
        core_workload ~obs:sink ~scheme ~threads ~per_thread:ops ~prefill
          ~batch ()
      in
      let snap = Oa_obs.Sink.snapshot sink in
      let total = float_of_int (Array.fold_left ( + ) 0 r.thread_cycles) in
      let rows =
        List.map
          (fun (name, row) -> (name, row, Oa_obs.Snapshot.phase_estimate row))
          snap.Oa_obs.Snapshot.phases
      in
      let attributed = List.fold_left (fun a (_, _, e) -> a +. e) 0. rows in
      (* everything the schemes did not claim is structure traversal
         (plus timer overhead and sampling error); clamped because a
         noisy short run can over-attribute *)
      let traverse = Float.max 0. (total -. attributed) in
      (total, traverse, rows, r.executed)
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf "  \"benchmark\": \"phase_attribution\",\n";
    Printf.bprintf buf "  \"ops_per_thread\": %d,\n" ops;
    Printf.bprintf buf "  \"prefill\": %d,\n" prefill;
    Printf.bprintf buf "  \"threads\": %d,\n" threads;
    Printf.bprintf buf "  \"batch\": %d,\n" batch;
    Printf.bprintf buf "  \"sample_log2\": %d,\n" sample_log2;
    Printf.bprintf buf "  \"host_cores\": %d,\n" host_cores;
    Printf.bprintf buf "  \"oversubscribed\": %b,\n" (threads > host_cores);
    Buffer.add_string buf "  \"runs\": [\n";
    let first = ref true in
    List.iter
      (fun scheme ->
        let total, traverse, rows, executed = one scheme in
        Format.printf "@.%s (%d ops, batch %d)@." (Schemes.id_name scheme)
          executed batch;
        Format.printf "%-16s %12s %10s %8s@." "phase" "est cycles"
          "cycles/op" "share";
        let print_row name est =
          Format.printf "%-16s %12.3e %10.1f %7.1f%%@." name est
            (est /. float_of_int executed)
            (100. *. est /. Float.max 1. total)
        in
        print_row "traverse" traverse;
        List.iter (fun (name, _, est) -> print_row name est) rows;
        Format.printf "%-16s %12.3e %10.1f %7.1f%%@." "total" total
          (total /. float_of_int executed)
          100.;
        if !first then first := false else Buffer.add_string buf ",\n";
        Printf.bprintf buf
          "    {\"scheme\": \"%s\",\n\
          \     \"total_cycles\": %.0f,\n\
          \     \"cycles_per_op\": %.1f,\n\
          \     \"phases\": [\n"
          (Schemes.id_name scheme) total
          (total /. float_of_int executed);
        (* the traverse remainder first, then the instrumented rows;
           hits/sampled are null for traverse (it is computed, not
           timed) *)
        Printf.bprintf buf
          "       {\"phase\": \"traverse\", \"hits\": null, \"sampled\": \
           null, \"cycles_est\": %.0f, \"share\": %.4f}"
          traverse
          (traverse /. Float.max 1. total);
        List.iter
          (fun (name, (hits, sampled, cycles), est) ->
            Printf.bprintf buf
              ",\n\
              \       {\"phase\": \"%s\", \"hits\": %d, \"sampled\": %d, \
               \"cycles_sampled\": %d, \"cycles_est\": %.0f, \"share\": \
               %.4f}"
              name hits sampled cycles est
              (est /. Float.max 1. total))
          rows;
        Buffer.add_string buf "\n     ]}")
      schemes;
    Buffer.add_string buf "\n  ]\n}\n";
    write_json json buf
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Cycle attribution for the SMR schemes: sampled-TSC per-phase \
          timers (warning checks, hazard publication, epoch \
          announcement, alloc/retire/reclaim, batch overhead) over the \
          core workload on the real backend, with the unattributed \
          remainder reported as traverse.  Writes BENCH_profile.json.")
    Term.(
      const run $ schemes_arg $ threads $ ops $ prefill_arg $ batch
      $ sample_log2 $ json_arg "BENCH_profile.json")

(* --- schemes --- *)

let schemes_cmd =
  let run () =
    List.iter
      (fun id -> print_endline (Schemes.id_name id))
      Schemes.all_ids
  in
  Cmd.v (Cmd.info "schemes" ~doc:"List available SMR schemes.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "oa_cli" ~version:"1.0"
      ~doc:
        "Reproduction harness for 'Efficient Memory Management for \
         Lock-Free Data Structures with Optimistic Access' (SPAA 2015)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            figure_cmd;
            check_cmd;
            serve_cmd;
            loadgen_cmd;
            ledger_verify_cmd;
            bench_core_cmd;
            profile_cmd;
            schemes_cmd;
          ]))
