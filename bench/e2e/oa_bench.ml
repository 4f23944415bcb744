(* oa_bench: one benchmark from the socket to the allocator.

   Runs the four workloads of Workload.all against [oa_cli serve] (a child
   process) or, for core_update, against an in-process table; prints every
   metric as "name value unit", then one JSON result line.  See
   bench/e2e/README.md.

     oa_bench [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
              [--repeat K] [--smoke] [--names BENCHMARK.json]
              [--oa-cli PATH] [--out DIR] [--inject-wrong]

   Exit status: 0 when every reply was correct; 3 when a reply
   contradicted the sequential model (a wrong answer, or an acked write
   lost across a restart); 1 on any other failure; 2 on bad usage. *)

module W = Workload
module L = Load
module R = Report
module Clock = Oa_runtime.Clock

type opts = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
  repeat : int;
  smoke : bool;
  names : string option;
  oa_cli : string;
  out_dir : string;
  inject_wrong : bool;
}

let usage () =
  prerr_endline
    "usage: oa_bench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--repeat K]\n\
    \                [--smoke] [--names BENCHMARK.json] [--oa-cli PATH] [--out DIR] \
     [--inject-wrong]";
  exit 2

let parse_args () =
  let o =
    ref
      {
        workload = None;
        seed = 1;
        seconds = 24;
        trace = false;
        repeat = 0;
        smoke = false;
        names = None;
        oa_cli = "_build/default/bin/oa_cli.exe";
        out_dir = "bench/e2e/out";
        inject_wrong = false;
      }
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o := { !o with workload = Some v }; go rest
    | "--seed" :: v :: rest -> o := { !o with seed = int v }; go rest
    | "--seconds" :: v :: rest -> o := { !o with seconds = max 2 (int v) }; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o := { !o with trace = v = "1" }; go rest
    | "--trace" :: rest -> o := { !o with trace = true }; go rest
    | "--repeat" :: v :: rest -> o := { !o with repeat = int v }; go rest
    | "--smoke" :: rest -> o := { !o with smoke = true }; go rest
    | "--names" :: v :: rest -> o := { !o with names = Some v }; go rest
    | "--oa-cli" :: v :: rest -> o := { !o with oa_cli = v }; go rest
    | "--out" :: v :: rest -> o := { !o with out_dir = v }; go rest
    | "--inject-wrong" :: rest -> o := { !o with inject_wrong = true }; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

(* --- phase lengths --- *)

type phases = {
  warm_s : float;  (** before each measured phase *)
  win_s : float;  (** throughput windows *)
  closed_windows : int;
  open_s : float;
  core_windows : int;
  ladder : Ladder.phases;
}

(* [--seconds S] is the measured time of one run.  A kv run splits it
   evenly between the closed loop and the open loop (12 s each at the
   reference S = 24); core_update measures all of it.  The warm-ups and
   the set-ups come on top. *)
let phases ~seconds ~smoke =
  if smoke then
    {
      warm_s = 0.2;
      win_s = 0.1;
      closed_windows = 4;
      open_s = 0.3;
      core_windows = 5;
      ladder = { Ladder.warm_s = 0.2; trace_s = 0.4; win_s = 0.1; open_warm_s = 0.1; open_s = 0.2 };
    }
  else
    let closed_s = max 1 (seconds / 2) in
    {
      warm_s = 1.0;
      win_s = 0.5;
      closed_windows = 2 * closed_s;
      open_s = float_of_int (max 1 (seconds - closed_s));
      core_windows = 2 * seconds;
      ladder = { Ladder.warm_s = 2.0; trace_s = 5.0; win_s = 0.5; open_warm_s = 1.0; open_s = 2.0 };
    }

let stamp (w : W.t) ~seed ph =
  R.host_stamp ()
  @ [
      ("seed", string_of_int seed);
      ("workload", w.W.name);
      ("keys", string_of_int w.W.keys);
      ("prefill", string_of_int w.W.prefill);
      ("delta", string_of_int w.W.delta);
      ("mix", W.mix_string w);
      ("dist", W.dist_string w);
      ("durable", string_of_bool w.W.durable);
    ]
  @ (if W.server w then
       [
         ("open_rate", string_of_int (W.rate w));
         ( "closed",
           Printf.sprintf "%dx%d,warm=%gs,windows=%dx%gs" Ladder.lanes Ladder.pipeline ph.warm_s
             ph.closed_windows ph.win_s );
         ("open", Printf.sprintf "1conn,warm=%gs,measure=%gs" ph.warm_s ph.open_s);
         ( "trace",
           Printf.sprintf "warm=%gs,closed=%gs,windows=%gs,open=%gs+%gs" ph.ladder.Ladder.warm_s
             ph.ladder.Ladder.trace_s ph.ladder.Ladder.win_s ph.ladder.Ladder.open_warm_s
             ph.ladder.Ladder.open_s );
       ]
     else
       [
         ( "core",
           Printf.sprintf "%ddomains,warm=%gs,windows=%dx%gs" Core.domains ph.warm_s
             ph.core_windows ph.win_s );
         ( "trace",
           Printf.sprintf "warm=%gs,windows=%gs,measure=%gs" ph.ladder.Ladder.warm_s
             ph.ladder.Ladder.win_s ph.ladder.Ladder.trace_s );
       ])

let mib b = float_of_int b /. 1048576.0

(* setup_s: the median over several set-ups in one run — at least 3, and
   more of the quick ones (up to 9) until 2 s have gone into them.
   [f k] performs set-up [k] and returns its result with its duration;
   every result but the last is handed to [discard]. *)
let set_up ~discard f =
  let rec go k times spent =
    let v, dt = f k in
    let times = dt :: times and spent = spent +. dt in
    if k >= 9 || (k >= 3 && spent >= 2.0) then begin
      Printf.printf "# setup: %d set-ups, %s s\n" k
        (String.concat " " (List.rev_map (Printf.sprintf "%.4f") times));
      (v, R.median times)
    end
    else begin
      discard v;
      go (k + 1) times spent
    end
  in
  go 1 [] 0.0

(* throughput_ops: the median of the per-window rates.  The best tenth
   (90th percentile) is printed alongside. *)
let throughput_value rates =
  Printf.printf "# throughput windows (ops/s): %s; p90 %.0f\n"
    (String.concat " " (List.map (Printf.sprintf "%.0f") rates))
    (Oa_harness.Stats.percentile 0.9 rates);
  ("throughput_ops", R.median rates)

(* p50_us / p99_us: the exact p50 and p99 of every sample of the
   measured phase.  The distribution of the same percentiles over
   windows of [window] consecutive requests is printed alongside. *)
let window = 1_000

let latency_values name (streams : int array list) =
  let all = Array.concat streams in
  Array.sort Int.compare all;
  let whole = R.percentiles all [ 0.5; 0.99; 0.999; 1.0 ] in
  let p99 = List.nth whole 1 in
  let beyond = Array.fold_left (fun n v -> if float_of_int v > p99 then n + 1 else n) 0 all in
  Printf.printf "# %s latency: %d samples; p50/p99/p99.9/max %s us; %d samples beyond p99\n" name
    (Array.length all)
    (String.concat "/" (List.map (fun v -> Printf.sprintf "%.3f" (v /. 1e3)) whole))
    beyond;
  (* a jump between neighbouring deciles next to p50 means the median sits
     between two modes (e.g. requests that wait for an fsync and requests
     that do not), and will swing from run to run *)
  Printf.printf "# %s latency deciles p10..p90: %s us\n" name
    (String.concat " "
       (List.map
          (fun v -> Printf.sprintf "%.1f" (v /. 1e3))
          (R.percentiles all [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ])));
  let per =
    List.concat_map
      (fun a ->
        List.init (Array.length a / window) (fun i ->
            let s = Array.sub a (i * window) window in
            Array.sort Int.compare s;
            match R.percentiles s [ 0.5; 0.99 ] with [ p50; p99 ] -> (p50, p99) | _ -> (0.0, 0.0)))
      streams
  in
  if per <> [] then
    List.iter
      (fun (label, xs) ->
        Printf.printf "# %s over %d windows of %d, p10/p25/p50/p75/p90: %s us\n" label
          (List.length xs) window
          (String.concat "/"
             (List.map
                (fun p -> Printf.sprintf "%.3f" (Oa_harness.Stats.percentile p xs /. 1e3))
                [ 0.1; 0.25; 0.5; 0.75; 0.9 ])))
      [ ("p50", List.map fst per); ("p99", List.map snd per) ];
  [ ("p50_us", List.hd whole /. 1e3); ("p99_us", p99 /. 1e3) ]

(* --- kv workloads --- *)

(* Every key whose acked state the model knows must read back the same
   from the restarted server: pipelined GETs, 128 per round.  A key that
   reads back otherwise is a wrong answer. *)
let verify_acked ~port (w : W.t) model =
  let t = L.tally () in
  let client = Proc.connect port in
  let batch = ref [] and n = ref 0 in
  let flush () =
    if !batch <> [] then begin
      let keys = List.rev !batch in
      batch := [];
      n := 0;
      let reqs = List.map (fun k -> { Oa_net.Protocol.id = k; op = Oa_net.Protocol.Get k }) keys in
      t.L.attempted <- t.L.attempted + List.length keys;
      match Oa_net.Client.call client reqs with
      | Ok rs ->
          List.iter2
            (fun k (r : Oa_net.Protocol.response) ->
              match r.Oa_net.Protocol.body with
              | Oa_net.Protocol.Bool b when r.Oa_net.Protocol.rid = k ->
                  if not (W.Model.check model Oa_net.Service.Get k b) then
                    t.L.failed <- t.L.failed + 1
              | _ -> t.L.failed <- t.L.failed + 1)
            keys rs
      | Error _ -> t.L.failed <- t.L.failed + List.length keys
    end
  in
  for k = 1 to w.W.keys do
    if W.Model.known model k then begin
      batch := k :: !batch;
      incr n;
      if !n = 128 then flush ()
    end
  done;
  flush ();
  Oa_net.Client.close client;
  t

let kv_run ~exe ~out_dir (w : W.t) ~seed ph =
  Proc.with_tmp ~out_dir w.W.name @@ fun tmp ->
  let args k =
    let data_dir = if w.W.durable then Some (Filename.concat tmp (string_of_int k)) else None in
    W.serve_args w ~data_dir ~metrics:None
  in
  (* set-up: spawn to the first answered PING; the last server stays *)
  let (srv, k), setup_s =
    set_up ~discard:(fun (s, _) -> Proc.kill s) (fun k ->
        let s, dt = Proc.spawn ~exe (args k) in
        ((s, k), dt))
  in
  let model = W.Model.create w.W.keys in
  let win_ns = L.s_to_ns ph.win_s in
  (* The open loop runs first, on the server as set-up left it: measured
     after the closed loop's saturation (on kv_durable, after a long WAL
     and fresh checkpoints), light-load latency sat higher
     (bench/e2e/README.md, Phases). *)
  let ol =
    L.open_loop w ~seed ~model ~port:srv.Proc.port ~rate:(W.rate w) ~warm_s:ph.warm_s
      ~meas_s:ph.open_s
  in
  let t_start = Clock.now_ns () + L.s_to_ns ph.warm_s in
  let closed =
    L.closed_loop w ~seed ~model ~lanes:Ladder.lanes
      {
        L.port = srv.Proc.port;
        pipeline = Ladder.pipeline;
        t_start;
        win_ns;
        windows = ph.closed_windows;
        t_end = t_start + (ph.closed_windows * win_ns);
        probe = true;
        trace = false;
      }
  in
  let rates = Array.to_list (L.window_rates closed ~win_ns) in
  let late_p99 = match R.percentiles ol.L.late [ 0.99 ] with [ v ] -> v /. 1e3 | _ -> 0.0 in
  Printf.printf "# open loop: %d req/s, sender late p99 %.1f us\n" (W.rate w) late_p99;
  let t = List.fold_left (fun acc (r : L.closed_result) -> L.add_tally acc r.L.ct) ol.L.ot closed in
  let t, served_ok =
    if w.W.durable then begin
      (* crash: no drain, no final checkpoint; recovery alone must bring
         back every acked write *)
      Proc.kill srv;
      let srv2, recovery_s = Proc.spawn ~exe (args k) in
      Printf.printf "# restart after SIGKILL: recovered in %.3f s\n" recovery_s;
      let v = verify_acked ~port:srv2.Proc.port w model in
      Printf.printf "# acked keys verified: %d, lost or wrong: %d\n" v.L.attempted v.L.failed;
      let ok, _ = Proc.stop srv2 in
      (L.add_tally t v, ok)
    end
    else
      let ok, report = Proc.stop srv in
      List.iter (fun l -> Printf.printf "# serve: %s\n" l) report;
      (t, ok)
  in
  if not served_ok then print_endline "# serve exited nonzero: conservation violated";
  let failed = t.L.failed + if served_ok then 0 else 1 in
  {
    R.correct = failed = 0;
    attempted = t.L.attempted;
    failed;
    values =
      [ ("setup_s", setup_s); throughput_value rates ]
      @ latency_values "open-loop" [ ol.L.lat ]
      @ [
          ("error_rate", R.ratio (float_of_int failed) (float_of_int (max 1 t.L.attempted)));
          ("rss_mb", mib t.L.rss_max);
        ];
  }

(* --- core_update --- *)

let core_run (w : W.t) ~seed ph =
  let (shard, model), setup_s =
    set_up ~discard:ignore (fun _ ->
        Gc.full_major ();
        let t0 = Clock.now_ns () in
        let b = Core.build w ~seed in
        (b, float_of_int (Clock.now_ns () - t0) /. 1e9))
  in
  let r =
    Core.run w ~seed shard model ~timing:Core.Sampled ~warm_s:ph.warm_s ~win_s:ph.win_s
      ~windows:ph.core_windows
  in
  let rates = List.map (fun c -> float_of_int c /. ph.win_s) (Array.to_list r.Core.counts) in
  let failed =
    match Core.verdict shard with
    | Ok () -> r.Core.ct.L.failed
    | Error e ->
        Printf.printf "# %s\n" e;
        r.Core.ct.L.failed + 1
  in
  let attempted = r.Core.ct.L.attempted in
  {
    R.correct = failed = 0;
    attempted;
    failed;
    values =
      [ ("setup_s", setup_s); throughput_value rates ]
      @ latency_values "per-op (1 in 64)" r.Core.lat
      @ [
          ("error_rate", R.ratio (float_of_int failed) (float_of_int (max 1 attempted)));
          ("rss_mb", mib (Oa_runtime.Sysinfo.rss_bytes ()));
        ];
  }

(* --- one run --- *)

let run_one o ph (w : W.t) ~seed ~trace =
  let st = stamp w ~seed ph in
  Printf.printf "# %s %s (seed %d)\n" w.W.name (if trace then "traced" else "end-to-end") seed;
  R.print_stamp st;
  let cpu0 = R.cpu_ticks () in
  let r =
    try
      match (trace, W.server w) with
      | true, true -> Ladder.run ~exe:o.oa_cli ~out_dir:o.out_dir ~stamp:st w ~seed ph.ladder
      | true, false -> Ladder.core w ~seed ph.ladder
      | false, true -> kv_run ~exe:o.oa_cli ~out_dir:o.out_dir w ~seed ph
      | false, false -> core_run w ~seed ph
    with e ->
      Printf.eprintf "oa_bench: %s: %s\n%s%!" w.W.name (Printexc.to_string e)
        (Printexc.get_backtrace ());
      { R.correct = false; attempted = 1; failed = 1; values = [] }
  in
  (* host noise: a run whose vCPUs were stolen is slower for it *)
  (match (cpu0, R.cpu_ticks ()) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
      Printf.printf "# host: %.2f%% of CPU time stolen by the hypervisor during the run\n"
        (100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0))
  | _ -> ());
  R.print_metrics (if trace then R.per_layer else R.end_to_end) r;
  Printf.printf "# %s: attempted=%d failed=%d correct=%b\n%!" w.W.name r.R.attempted r.R.failed
    r.R.correct;
  r

(* The result line carries the metrics every workload prints, less those
   printed as text only: p99_us spreads far wider from run to run than
   any regression bound on the reference host (bench/e2e/README.md),
   error_rate is 0 on every run the bench accepts (the line carries it as
   failed/attempted), alloc.mem_grow is 0 while the arenas are not
   elastic, and trace.overhead_pct checks the trace rather than measures
   a layer.  A layer one workload lacks is printed by the others as text
   only. *)
let text_only = [ "p99_us"; "error_rate"; "alloc.mem_grow"; "trace.overhead_pct" ]

let json_specs ~trace =
  List.filter
    (fun s -> s.R.scope = R.Every && not (List.mem s.R.name text_only))
    (if trace then R.per_layer else R.end_to_end)

let merge prefix_results ~trace =
  let specs = json_specs ~trace in
  let correct = List.for_all (fun (_, r) -> r.R.correct) prefix_results in
  let attempted = List.fold_left (fun acc (_, r) -> acc + r.R.attempted) 0 prefix_results in
  let failed = List.fold_left (fun acc (_, r) -> acc + r.R.failed) 0 prefix_results in
  let specs, values =
    match prefix_results with
    | [ (_, r) ] -> (specs, r.R.values)
    | _ ->
        ( List.concat_map
            (fun (p, _) -> List.map (fun s -> { s with R.name = p ^ "." ^ s.R.name }) specs)
            prefix_results,
          List.concat_map
            (fun (p, r) -> List.map (fun (k, v) -> (p ^ "." ^ k, v)) r.R.values)
            prefix_results )
  in
  R.result_json specs { R.correct; attempted; failed; values }

(* The process's exit status once its runs have [failed] failures in
   all.  Under [--inject-wrong] the flipped reply must be the only
   failure: if the flip never reached a check, or anything else failed,
   the status is 1, so that 3 proves the model check caught the flip. *)
let exit_status o ~failed =
  let wrong = Atomic.get W.Model.wrong in
  if o.inject_wrong && Atomic.get W.Model.inject then begin
    prerr_endline "oa_bench: --inject-wrong: no reply was flipped";
    1
  end
  else if o.inject_wrong && failed <> wrong then begin
    Printf.eprintf "oa_bench: --inject-wrong: %d failures besides %d wrong answers\n"
      (failed - wrong) wrong;
    1
  end
  else if wrong > 0 then 3
  else if failed > 0 then 1
  else 0

(* --- smoke: every metric of each workload's layers printed, no failures --- *)

let names_of path key =
  match Json.member key (Json.parse (Json.read_file path)) with
  | Some (Json.Arr xs) ->
      List.filter_map (fun x -> match Json.member "name" x with Some (Json.Str s) -> Some s | _ -> None) xs
  | _ -> failwith (path ^ ": no " ^ key)

let smoke o ph workloads =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* BENCHMARK.json lists exactly the metrics the result line carries *)
  Option.iter
    (fun path ->
      List.iter
        (fun trace ->
          let listed = names_of path (if trace then "per_layer" else "end_to_end") in
          let carried = List.map (fun s -> s.R.name) (json_specs ~trace) in
          if List.sort compare listed <> List.sort compare carried then
            problem "%s lists %s; the result line carries %s" path (String.concat "," listed)
              (String.concat "," carried))
        [ false; true ])
    o.names;
  (* each workload prints exactly the metrics of its layers *)
  let expect ~trace (w : W.t) (r : R.result) =
    List.iter
      (fun (s : R.spec) ->
        let mine = R.applies ~server:(W.server w) ~durable:w.W.durable s in
        match (mine, R.value r s.R.name) with
        | true, None -> problem "%s: %s not printed" w.W.name s.R.name
        | false, Some _ ->
            problem "%s: %s printed, but its layer is not on this workload" w.W.name s.R.name
        | _ -> ())
      (if trace then R.per_layer else R.end_to_end)
  in
  let failed = ref 0 in
  List.iter
    (fun w ->
      let e = run_one o ph w ~seed:o.seed ~trace:false in
      expect ~trace:false w e;
      let t = run_one o ph w ~seed:o.seed ~trace:true in
      expect ~trace:true w t;
      failed := !failed + e.R.failed + t.R.failed;
      if R.value e "error_rate" <> Some 0.0 then
        Printf.eprintf "oa_bench smoke: %s: error_rate is not 0\n" w.W.name)
    workloads;
  List.iter (fun p -> Printf.eprintf "oa_bench smoke: %s\n" p) (List.rev !problems);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {}}\n"
    (!problems = [] && !failed = 0)
    (2 * List.length workloads)
    (List.length !problems + !failed);
  exit (if !problems <> [] then 1 else exit_status o ~failed:!failed)

let () =
  Printexc.record_backtrace true;
  L.quiet_gc ();
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = Sys.Signal_handle (fun _ -> exit 130) in
  Sys.set_signal Sys.sigint stop;
  Sys.set_signal Sys.sigterm stop;
  let o = parse_args () in
  let workloads =
    match o.workload with
    | None -> W.all
    | Some n -> (
        match W.find n with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "oa_bench: unknown workload %s (one of: %s)\n" n
              (String.concat ", " (List.map (fun w -> w.W.name) W.all));
            exit 2)
  in
  if not (Sys.file_exists o.oa_cli) then begin
    Printf.eprintf "oa_bench: %s not found; build it first (dune build bin/oa_cli.exe)\n" o.oa_cli;
    exit 2
  end;
  Oa_store.Wal.mkdir_p o.out_dir;
  if o.inject_wrong then Atomic.set W.Model.inject true;
  let ph = phases ~seconds:o.seconds ~smoke:o.smoke in
  let workloads = if o.smoke then List.map W.smoke workloads else workloads in
  if o.smoke then smoke o ph workloads
  else if o.repeat > 0 then
    Calibrate.calibrate ~exe:o.oa_cli ~out_dir:o.out_dir
      ~args:[ "--oa-cli"; o.oa_cli; "--out"; o.out_dir ]
      ~seed:o.seed ~seconds:o.seconds ~repeat:o.repeat workloads
  else begin
    let results =
      List.map (fun w -> (w.W.name, run_one o ph w ~seed:o.seed ~trace:o.trace)) workloads
    in
    print_endline (merge results ~trace:o.trace);
    exit (exit_status o ~failed:(List.fold_left (fun acc (_, r) -> acc + r.R.failed) 0 results))
  end
