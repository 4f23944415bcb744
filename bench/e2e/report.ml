(** Metric names and units, the printed result, the stamp, and the
    statistics the bench reports with.

    [BENCHMARK.json] at the repository root lists the same names; the
    smoke run ([--smoke --names BENCHMARK.json]) fails if any of them is
    not printed. *)

(** The workloads a metric belongs to.  A traced run prints only the
    layers its workload's requests pass through: [Server] layers on the
    kv workloads, [Durable] ones on kv_durable alone. *)
type scope = Every | Server | Durable

type spec = { name : string; unit : string; scope : scope }

let spec ?(scope = Every) name unit = { name; unit; scope }

let applies ~server ~durable s =
  match s.scope with Every -> true | Server -> server | Durable -> durable

(** End-to-end metrics: printed by every workload's untraced run. *)
let end_to_end =
  [
    spec "setup_s" "s";
    spec "throughput_ops" "ops/s";
    spec "p50_us" "us";
    spec "p99_us" "us";
    spec "error_rate" "ratio";
    spec "rss_mb" "MiB";
  ]

(** Per-layer metrics, each printed by the traced runs of the workloads
    in its scope. *)
let per_layer =
  let kv = spec ~scope:Server and durable = spec ~scope:Durable in
  [
    kv "loadgen.late_p99_us" "us";
    kv "protocol.encode_req_ns" "ns";
    kv "protocol.decode_req_ns" "ns";
    kv "protocol.encode_resp_ns" "ns";
    kv "protocol.decode_resp_ns" "ns";
    kv "net.round_us" "us";
    kv "net.self_us" "us";
    kv "service.round_us" "us";
    kv "service.self_us" "us";
    kv "shard_queue.batch_p50" "count";
    kv "shard_queue.depth_p99" "count";
    kv "service.busy" "count";
    spec "hash_table.get_ns" "ns";
    spec "hash_table.insert_ns" "ns";
    spec "hash_table.delete_ns" "ns";
    kv "hash_table.group_us" "us";
    spec "smr.allocs_per_op" "1/op";
    spec "smr.retires_per_op" "1/op";
    spec "smr.recycled_per_retire" "ratio";
    spec "smr.rollbacks_per_kop" "1/kop";
    spec "smr.phases_per_kop" "1/kop";
    spec "smr.fences_per_op" "1/op";
    spec "smr.hazard_scans_per_kop" "1/kop";
    spec "smr.alloc_stalls" "count";
    spec "alloc.committed_mb" "MiB";
    spec "alloc.chunks_live" "count";
    spec "alloc.mem_grow" "count";
    durable "store.append_us" "us";
    durable "store.sync_us" "us";
    durable "store.fsync_p50_us" "us";
    durable "store.fsync_p99_us" "us";
    durable "store.fsyncs_per_kop" "1/kop";
    durable "store.bytes_per_user_byte" "ratio";
    durable "store.ckpts" "count";
    durable "store.recovery_s" "s";
    kv "unattributed_us" "us";
    spec "trace.overhead_pct" "%";
  ]

(** One run's outcome.  [values] maps metric names to numbers; [correct]
    is false on any failure: a wrong answer, a failed conservation check,
    a request left unanswered. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let value r name = List.assoc_opt name r.values

(* The shortest decimal that reads back as the same float: all its
   digits, none invented.  Non-finite values never reach the output
   (they come only from empty samples, which report 0). *)
let num v =
  if not (Float.is_finite v) then "0"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let print_metrics specs r =
  List.iter
    (fun s ->
      match value r s.name with
      | Some v -> Printf.printf "%s %s %s\n" s.name (num v) s.unit
      | None -> ())
    specs

let json_string s = "\"" ^ Oa_obs.Export.json_escape s ^ "\""

(** The closing line: one JSON object with [correct], [attempted],
    [failed] and [metrics] (each [{"value", "unit"}]) for [specs]. *)
let result_json specs r =
  let metrics =
    List.filter_map
      (fun s ->
        Option.map
          (fun v ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (json_string s.name)
              (num v) (json_string s.unit))
          (value r s.name))
      specs
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct (max 1 r.attempted) r.failed (String.concat ", " metrics)

(* --- statistics --- *)

(** [percentiles sorted ps]: exact percentiles of sorted integer samples
    (linear interpolation between ranks). *)
let percentiles (sorted : int array) ps =
  if Array.length sorted = 0 then List.map (fun _ -> 0.0) ps
  else
    let a = Array.map float_of_int sorted in
    List.map (Oa_harness.Stats.percentile_sorted a) ps

let median xs = match xs with [] -> 0.0 | _ -> Oa_harness.Stats.median xs

let mean xs = match xs with [] -> 0.0 | _ -> Oa_harness.Stats.mean xs

let ratio a b = if b = 0.0 then 0.0 else a /. b

(** First and third quartiles as Python's [statistics.quantiles(xs, n=4)]
    computes them (the default "exclusive" method), so the spread printed
    here is the one a Python reader of the results would compute. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = min (n - 1) (max 1 (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(** Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  ratio (q3 -. q1) (Float.abs (median xs))

(* --- stamp --- *)

(* The checked-out revision, read from [.git] in the working directory
   (never searched for upwards); "unknown" outside a git checkout. *)
let git_rev () =
  let read path =
    try
      let ic = open_in path in
      let l = String.trim (input_line ic) in
      close_in ic;
      Some l
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some h -> h
      | None -> (
          try
            let ic = open_in ".git/packed-refs" in
            let rec find () =
              match input_line ic with
              | l -> (
                  match String.split_on_char ' ' l with
                  | [ h; name ] when name = r -> h
                  | _ -> find ())
              | exception End_of_file -> "unknown"
            in
            let h = find () in
            close_in ic;
            h
          with Sys_error _ -> "unknown"))
  | Some h -> h

(** The host's CPU time so far, from the first line of [/proc/stat], in
    ticks: [Some (steal, total)], [None] where it cannot be read.  Steal
    is time the hypervisor ran something else while a vCPU had work. *)
let cpu_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
        (* user nice system idle iowait irq softirq steal, then guest
           time, which user already counts *)
        let v = List.filteri (fun i _ -> i < 8) (List.map int_of_string fields) in
        Some (List.nth v 7, List.fold_left ( + ) 0 v)
    | _ -> None
  with _ -> None

(** Host and build facts shared by every workload's stamp. *)
let host_stamp () =
  let n = Oa_runtime.Sysinfo.nproc () in
  [
    ("git_rev", git_rev ());
    ("nproc", string_of_int n);
    ("ocaml", Sys.ocaml_version);
  ]
  @ if n < 2 then [ ("oversubscribed", "true") ] else []

let print_stamp kvs =
  print_string "# stamp";
  List.iter (fun (k, v) -> Printf.printf " %s=%s" k v) kvs;
  print_newline ()

let stamp_json kvs =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_string v)) kvs)
  ^ "}"
