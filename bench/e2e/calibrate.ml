(** Calibration: the open-loop rate sweep that fixes each kv workload's
    rate, and the repeated runs that fix BENCHMARK.json's bounds.  Both
    rules are stated in bench/e2e/README.md (Calibration). *)

module W = Workload
module L = Load
module R = Report

(* --- the rate sweep --- *)

let rates = [ 6_250; 12_500; 25_000; 50_000; 100_000; 200_000; 400_000 ]

(* Each rate's open loop: a warm-up, then the measured seconds. *)
let warm_s = 1.0
let meas_s = 3.0

type point = {
  rate : int;
  p50 : float;  (** whole measured phase, us *)
  p99 : float;
  last_p50 : float;  (** the phase's last second, us *)
  failed : int;
}

(* A rate passes when every request is answered without failure and the
   p50 of both the whole phase and its last second stay within
   [p50_factor] times the p50 at the lowest rate: the server keeps up,
   and its backlog does not grow. *)
let p50_factor = 2.0

let passes ~base p =
  p.failed = 0 && p.p50 <= p50_factor *. base && p.last_p50 <= p50_factor *. base

(* The highest rate of one sweep below the first that fails. *)
let highest_passing = function
  | [] -> 0
  | base :: _ as points ->
      let rec go best = function
        | p :: rest when passes ~base:base.p50 p -> go p.rate rest
        | _ -> best
      in
      go 0 points

(* The sweep runs this many times, each on a fresh server: near the knee
   one noisy second can fail a point, so the rule takes the median round. *)
let rounds = 3

(** The sweep rule's rate: half the median over the rounds of each
    round's highest passing rate, so that the server runs at half the
    load it keeps up with. *)
let rule_rate sweeps =
  let highs = List.sort compare (List.map highest_passing sweeps) in
  List.nth highs (List.length highs / 2) / 2

let us_percentile sorted p =
  match R.percentiles sorted [ p ] with [ v ] -> v /. 1e3 | _ -> 0.0

(** Open loops at each rate in turn on one server, stopping after the
    first rate that fails. *)
let sweep ~exe ~out_dir (w : W.t) ~seed =
  Proc.with_tmp ~out_dir w.W.name @@ fun tmp ->
  let data_dir = if w.W.durable then Some (Filename.concat tmp "sweep") else None in
  let srv, _ = Proc.spawn ~exe (W.serve_args w ~data_dir ~metrics:None) in
  let model = W.Model.create w.W.keys in
  let rec go acc = function
    | [] -> List.rev acc
    | rate :: rest ->
        let ol = L.open_loop w ~seed ~model ~port:srv.Proc.port ~rate ~warm_s ~meas_s in
        let n = Array.length ol.L.lat in
        let sorted a = Array.sort Int.compare a; a in
        let all = sorted (Array.copy ol.L.lat) in
        let last = sorted (Array.sub ol.L.lat (max 0 (n - rate)) (min n rate)) in
        let p =
          {
            rate;
            p50 = us_percentile all 0.5;
            p99 = us_percentile all 0.99;
            last_p50 = us_percentile last 0.5;
            failed = ol.L.ot.L.failed;
          }
        in
        Printf.printf "# sweep %s %d req/s: p50 %.1f us, p99 %.1f us, last-second p50 %.1f us, %d failed\n%!"
          w.W.name rate p.p50 p.p99 p.last_p50 p.failed;
        let acc = p :: acc in
        let base = List.nth acc (List.length acc - 1) in
        if passes ~base:base.p50 p then go acc rest else List.rev acc
  in
  let points = go [] rates in
  let served_ok, _ = Proc.stop srv in
  (points, served_ok)

let sweep_json (w : W.t) sweeps =
  let point p =
    Printf.sprintf
      "{\"rate\": %d, \"p50_us\": %s, \"p99_us\": %s, \"last_p50_us\": %s, \"failed\": %d}" p.rate
      (R.num p.p50) (R.num p.p99) (R.num p.last_p50) p.failed
  in
  Printf.sprintf
    "    %S: {\"fixed_rate\": %d, \"rule_rate\": %d, \"p50_factor\": %g, \"rounds\": [\n%s]}"
    w.W.name (W.rate w) (rule_rate sweeps) p50_factor
    (String.concat ",\n"
       (List.map (fun ps -> "      [" ^ String.concat ", " (List.map point ps) ^ "]") sweeps))

(* --- repeated runs --- *)

let child = ref None

let () =
  at_exit (fun () ->
      Option.iter
        (fun pid ->
          try
            Unix.kill pid Sys.sigterm;
            ignore (Unix.waitpid [] pid)
          with Unix.Unix_error _ -> ())
        !child)

(** One end-to-end run in a fresh process, as BENCHMARK.json's command
    makes it; its output is echoed, indented.  Returns every end-to-end
    metric it printed as [name value unit], those the result line leaves
    out included, and the share of CPU time stolen during it as
    ["steal_pct"]; [None] when the run failed. *)
let run_child args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  child := Some pid;
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let metrics = ref [] in
  (try
     while true do
       let l = input_line ic in
       print_endline ("  " ^ l);
       let add name v = Option.iter (fun x -> metrics := (name, x) :: !metrics) (float_of_string_opt v) in
       match String.split_on_char ' ' l with
       | [ name; v; _unit ] when List.exists (fun s -> s.R.name = name) R.end_to_end -> add name v
       | "#" :: "host:" :: pct :: _ -> add "steal_pct" (String.sub pct 0 (max 0 (String.length pct - 1)))
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  let rec wait () =
    try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let st = wait () in
  child := None;
  if st = Unix.WEXITED 0 then Some !metrics else None

(* Each end-to-end metric's bound: three times its largest spread over
   the workloads and sets, at least 5 %, at most the 25 % cap; set-up
   time gets the largest bound, the cap. *)
let bound_rule = "3 x the largest spread, within [0.05, 0.25]; setup_s 0.25"

let bound name spreads =
  if name = "setup_s" then 0.25
  else Float.min 0.25 (Float.max 0.05 (3.0 *. List.fold_left Float.max 0.0 spreads))

type cell = { first_seed : int; xs : float list }

let cell_json c =
  let q1, q3 = R.quartiles c.xs in
  Printf.sprintf
    "{\"first_seed\": %d, \"median\": %s, \"q1\": %s, \"q3\": %s, \"spread\": %s, \"values\": [%s]}"
    c.first_seed (R.num (R.median c.xs)) (R.num q1) (R.num q3) (R.num (R.spread c.xs))
    (String.concat ", " (List.map R.num c.xs))

(* Two sets, so that the file shows how far the medians move between
   sets of the same commit: the check a regression bound must survive. *)
let sets = 2

(** [calibrate]: the sweep on every kv workload, then [sets] sets of
    [repeat] end-to-end runs per workload (set [i] on seeds [seed + 1000
    i] onwards); writes [out_dir/calibration.json], the file committed as
    bench/e2e/baseline.json.  [args] are passed on to every run. *)
let calibrate ~exe ~out_dir ~args ~seed ~seconds ~repeat (workloads : W.t list) =
  let sweeps =
    List.filter_map
      (fun (w : W.t) ->
        if not (W.server w) then None
        else begin
          let sweeps =
            List.init rounds (fun i ->
                let points, ok =
                  sweep ~exe ~out_dir w ~seed:(seed + i)
                in
                (* overload may refuse requests; it must never answer wrongly *)
                if (not ok) || Atomic.get W.Model.wrong > 0 then begin
                  prerr_endline ("oa_bench: the sweep of " ^ w.W.name ^ " failed a correctness check");
                  exit 1
                end;
                points)
          in
          let rule = rule_rate sweeps in
          Printf.printf "calibration %s sweep rule rate %d req/s, fixed rate %d req/s\n%!" w.W.name
            rule (W.rate w);
          Some (w, rule, sweep_json w sweeps)
        end)
      workloads
  in
  (* The runs below measure the fixed rates, so each must be at most the
     rule's: at most half the load the server keeps up with.  A rate the
     rule allows stays, so that a sweep near a knee only ever lowers it. *)
  List.iter
    (fun ((w : W.t), rule, _) ->
      if W.rate w > rule then begin
        Printf.eprintf
          "oa_bench: %s's fixed rate %d req/s exceeds the sweep rule's %d req/s; lower it in \
           workload.ml and rerun\n"
          w.W.name (W.rate w) rule;
        exit 1
      end)
    sweeps;
  let sweeps = List.map (fun (_, _, j) -> j) sweeps in
  let specs = List.filter (fun s -> s.R.name <> "error_rate") R.end_to_end in
  let cells =
    List.map
      (fun (w : W.t) ->
        let per_set =
          List.init sets (fun set ->
              let first = seed + (1000 * set) in
              let runs =
                List.init repeat (fun i ->
                    Printf.printf "# calibration %s seed %d\n%!" w.W.name (first + i);
                    match
                      run_child
                        ([ "--workload"; w.W.name; "--seed"; string_of_int (first + i) ]
                        @ [ "--seconds"; string_of_int seconds ]
                        @ args)
                    with
                    | Some ms -> ms
                    | None ->
                        prerr_endline ("oa_bench: a calibration run of " ^ w.W.name ^ " failed");
                        exit 1)
              in
              (first, runs))
        in
        let cells name =
          List.map
            (fun (first, runs) ->
              { first_seed = first; xs = List.filter_map (List.assoc_opt name) runs })
            per_set
        in
        (w, List.map (fun (s : R.spec) -> (s, cells s.R.name)) specs, cells "steal_pct"))
      workloads
  in
  let bounds =
    List.map
      (fun (s : R.spec) ->
        let spreads =
          List.concat_map
            (fun (_, ms, _) -> List.map (fun c -> R.spread c.xs) (List.assoc s ms))
            cells
        in
        (s.R.name, bound s.R.name spreads))
      specs
  in
  let steal =
    List.map
      (fun ((w : W.t), _, cs) ->
        Printf.sprintf "    %S: [%s]" w.W.name (String.concat ", " (List.map cell_json cs)))
      cells
  in
  let rows =
    List.concat_map
      (fun ((w : W.t), ms, _) ->
        List.map
          (fun ((s : R.spec), cs) ->
            let b = List.assoc s.R.name bounds in
            let spread = List.fold_left (fun acc c -> Float.max acc (R.spread c.xs)) 0.0 cs in
            let medians = List.map (fun c -> R.median c.xs) cs in
            let m0 = List.hd medians in
            let shift =
              List.fold_left (fun acc m -> Float.max acc (Float.abs (R.ratio (m -. m0) m0))) 0.0 medians
            in
            let steady = 3.0 *. spread <= b and resolved = spread <= b && shift <= b in
            Printf.printf
              "calibration %s %s medians %s spread %.4f shift %.4f bound %.2f%s%s unit=%s\n"
              w.W.name s.R.name
              (String.concat "/" (List.map R.num medians))
              spread shift b
              (if steady then " steady" else "")
              (if resolved then "" else " UNRESOLVED")
              s.R.unit;
            Printf.sprintf
              "    {\"workload\": %S, \"metric\": %S, \"unit\": %S, \"bound\": %.2f, \"spread\": %s, \
               \"shift\": %s, \"steady\": %b, \"resolved\": %b,\n     \"sets\": [%s]}"
              w.W.name s.R.name s.R.unit b (R.num spread) (R.num shift) steady resolved
              (String.concat ", " (List.map cell_json cs)))
          ms)
      cells
  in
  let path = Filename.concat out_dir "calibration.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"stamp\": %s,\n  \"repeat\": %d,\n  \"sets\": %d,\n  \"first_seed\": %d,\n  \
     \"seconds\": %d,\n  \"bound_rule\": %S,\n  \"bounds\": {%s},\n  \"sweep\": {\n%s\n  },\n  \
     \"steal_pct\": {\n%s\n  },\n  \"rows\": [\n%s\n  ]\n}\n"
    (R.stamp_json (R.host_stamp ())) repeat sets seed seconds bound_rule
    (String.concat ", " (List.map (fun (n, b) -> Printf.sprintf "%S: %.2f" n b) bounds))
    (String.concat ",\n" sweeps) (String.concat ",\n" steal) (String.concat ",\n" rows);
  close_out oc;
  Printf.printf "# wrote %s\n" path
