(** Sample statistics for benchmark reporting.

    The paper reports, per configuration, the mean over 20 repetitions with
    95% confidence error bars; {!summary} provides the same quantities. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  ci95 : float;  (** half-width of the 95% confidence interval *)
  min : float;
  max : float;
  median : float;
  p90 : float;  (** 90th percentile (tail behaviour, not just mean±CI) *)
  p99 : float;  (** 99th percentile *)
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. float_of_int (List.length xs - 1))

(* Two-sided 97.5% Student-t quantiles for small samples; 1.96 beyond. *)
let t_quantile n =
  let table =
    [| 12.71; 4.30; 3.18; 2.78; 2.57; 2.45; 2.36; 2.31; 2.26; 2.23;
       2.20; 2.18; 2.16; 2.14; 2.13; 2.12; 2.11; 2.10; 2.09; 2.09 |]
  in
  let df = n - 1 in
  if df <= 0 then 0.0
  else if df <= Array.length table then table.(df - 1)
  else 1.96

(* Percentile of a sorted array with linear interpolation between ranks
   (the "type 7" estimator of R/NumPy): rank r = p * (n-1), interpolating
   between floor(r) and ceil(r). *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty"
  else if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p outside [0,1]"
  else if n = 1 then a.(0)
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

(** [percentile p xs] for [p] in [[0, 1]]: sorts once into an array (O(n
    log n), unlike the former list-walking median's O(n²)) and
    interpolates linearly between ranks.  [percentile 0.5] is the median. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile_sorted a p

let median xs = percentile 0.5 xs

(** [trimmed_mean xs] drops the [k] smallest and [k] largest samples and
    averages the rest, with [k = max 1 (n / 5)] from five samples up, [1]
    for three or four, and [0] below three.  It is the statistic
    bin/perf_gate.sh gates batch speedups on: pairing the batch sizes
    within each repeat already absorbs noise episodes, so what is left
    per pair is roughly symmetric jitter, where a trimmed mean is tighter
    than the median (which keeps only the middle sample). *)
let trimmed_mean xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.trimmed_mean: empty";
  Array.sort compare a;
  let k = if n >= 5 then max 1 (n / 5) else if n >= 3 then 1 else 0 in
  let s = ref 0. in
  for i = k to n - 1 - k do
    s := !s +. a.(i)
  done;
  !s /. float_of_int (n - (2 * k))

let summary xs =
  match xs with
  | [] -> invalid_arg "Stats.summary: empty"
  | _ ->
      let n = List.length xs in
      let sd = stddev xs in
      let a = Array.of_list xs in
      Array.sort compare a;
      {
        n;
        mean = mean xs;
        stddev = sd;
        ci95 = t_quantile n *. sd /. sqrt (float_of_int n);
        min = a.(0);
        max = a.(n - 1);
        median = percentile_sorted a 0.5;
        p90 = percentile_sorted a 0.9;
        p99 = percentile_sorted a 0.99;
      }

let pp_summary ppf s =
  Format.fprintf ppf "%.3g ± %.2g (n=%d)" s.mean s.ci95 s.n
