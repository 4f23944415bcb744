(* Tests for the sample-statistics module used by the benchmark reports. *)

module Stats = Oa_harness.Stats

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

let test_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "singleton" 5.0 (Stats.mean [ 5.0 ])

let test_mean_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty")
    (fun () -> ignore (Stats.mean []))

let test_stddev () =
  (* sample stddev of 2,4,4,4,5,5,7,9 is ~2.138 *)
  let s = Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  if not (feq ~eps:1e-3 s 2.138) then Alcotest.failf "stddev %.4f" s;
  Alcotest.(check (float 1e-9)) "constant data" 0.0
    (Stats.stddev [ 3.0; 3.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "singleton" 0.0 (Stats.stddev [ 3.0 ])

let test_median () =
  Alcotest.(check (float 1e-9)) "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

(* The trim rule bin/perf_gate.sh gates on: nothing dropped below three
   samples, one from each end for three to nine, n/5 from each end from
   ten up (two at CI's eleven).  Each sample is lopsided, so trimming one
   more or one fewer from each end moves the result. *)
let test_trimmed_mean () =
  let check name expected xs =
    Alcotest.(check (float 1e-9)) name expected (Stats.trimmed_mean xs)
  in
  check "n=1 keeps the sample" 7.0 [ 7.0 ];
  check "n=2 keeps both" 51.0 [ 100.0; 2.0 ];
  check "n=3 drops one per end" 2.0 [ 100.0; 1.0; 2.0 ];
  check "n=5 drops one per end" 5.0 [ 10.0; 100.0; 1.0; 2.0; 3.0 ];
  (* sorted: -50 0 1 2 3 4 5 6 14 20 100; two per end leave 1..6 and 14 *)
  check "n=11 drops two per end" 5.0
    [ 14.0; 100.0; 0.0; 6.0; 1.0; -50.0; 5.0; 2.0; 20.0; 3.0; 4.0 ];
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.trimmed_mean: empty") (fun () ->
      ignore (Stats.trimmed_mean []))

let test_summary () =
  let s = Stats.summary [ 10.0; 12.0; 14.0 ] in
  Alcotest.(check int) "n" 3 s.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 12.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 10.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 14.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "median" 12.0 s.Stats.median;
  Alcotest.(check bool) "ci positive" true (s.Stats.ci95 > 0.0);
  (* t(2 df, 97.5%) = 4.30: ci = 4.30 * 2 / sqrt 3 *)
  if not (feq ~eps:1e-2 s.Stats.ci95 (4.30 *. 2.0 /. sqrt 3.0)) then
    Alcotest.failf "ci95 %.4f" s.Stats.ci95

let test_summary_single () =
  let s = Stats.summary [ 7.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 7.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "ci is zero" 0.0 s.Stats.ci95

let test_large_sample_uses_normal_quantile () =
  let xs = List.init 100 (fun i -> float_of_int (i mod 10)) in
  let s = Stats.summary xs in
  let expected = 1.96 *. s.Stats.stddev /. 10.0 in
  if not (feq ~eps:1e-6 s.Stats.ci95 expected) then
    Alcotest.failf "ci95 %.4f expected %.4f" s.Stats.ci95 expected

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean within min..max" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.summary xs in
      s.Stats.min <= s.Stats.mean +. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

let prop_median_bounds =
  QCheck.Test.make ~name:"median within min..max" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.summary xs in
      s.Stats.min <= s.Stats.median +. 1e-9
      && s.Stats.median <= s.Stats.max +. 1e-9)

let prop_stddev_nonneg =
  QCheck.Test.make ~name:"stddev non-negative" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs -> Stats.stddev xs >= 0.0)

let prop_shift_invariance =
  QCheck.Test.make ~name:"stddev shift-invariant" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 2 30) (float_range (-100.) 100.))
    (fun xs ->
      let shifted = List.map (fun x -> x +. 42.0) xs in
      abs_float (Stats.stddev xs -. Stats.stddev shifted) < 1e-6)

let () =
  Alcotest.run "stats"
    [
      ( "unit",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "trimmed mean" `Quick test_trimmed_mean;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary singleton" `Quick test_summary_single;
          Alcotest.test_case "normal quantile for big n" `Quick
            test_large_sample_uses_normal_quantile;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mean_bounds;
            prop_median_bounds;
            prop_stddev_nonneg;
            prop_shift_invariance;
          ] );
    ]
