(* Tests for the SplitMix64 generator. *)

module SM = Oa_util.Splitmix

(* Known-answer vectors generated from the original boxed-[int64]
   implementation: the stream must stay bit-identical, because the golden
   figures and every seeded workload replay depend on it.  Per seed: four
   [next], four [below 1000], two [float], two [next] of [split 7], then
   one more [next] of the parent. *)
let kat =
  [
    ( 0,
      [ 2459150361376443823; 3348600503766967796; 487617019471545679;
        4074553321498378732 ],
      [ 747; 186; 913; 228 ],
      [ 0x1.f72bc4820e4c4p-3; 0x1.e77091186d196p-1 ],
      [ 2311393186867970312; 128395828694917699 ],
      203549151766241014 );
    ( 1,
      [ 1227844342346046657; 4533873174211652711; 4076781235000726878;
        3585294735394392331 ],
      [ 857; 336; 333; 725 ],
      [ 0x1.245c6378d5f8ep-2; 0x1.9686b91ce8c2cp-1 ],
      [ 2382438042646381774; 3842030158590288935 ],
      1944662566643928062 );
    ( 12345,
      [ 2454886589211414944; 3778200017661327597; 2205171434679333405;
        3248800117070709450 ],
      [ 555; 742; 546; 164 ],
      [ 0x1.eb4d00e560eaep-2; 0x1.bc2bd56b9ca7fp-1 ],
      [ 1718575342049309945; 2176458629033416983 ],
      2402418786382354454 );
  ]

let test_known_answers () =
  List.iter
    (fun (seed, nexts, belows, floats, splits, after) ->
      let name what = Printf.sprintf "seed %d %s" seed what in
      let t = SM.create seed in
      let draw n f = List.init n (fun _ -> f ()) in
      Alcotest.(check (list int))
        (name "next") nexts
        (draw 4 (fun () -> SM.next t));
      Alcotest.(check (list int))
        (name "below") belows
        (draw 4 (fun () -> SM.below t 1000));
      Alcotest.(check (list (float 0.0)))
        (name "float") floats
        (draw 2 (fun () -> SM.float t));
      let c = SM.split t 7 in
      Alcotest.(check (list int))
        (name "split") splits
        (draw 2 (fun () -> SM.next c));
      Alcotest.(check int) (name "after split") after (SM.next t))
    kat

(* The state is unboxed: an integer draw allocates nothing on the OCaml
   heap ([float] returns a boxed float unless inlined). *)
let test_draws_allocate_nothing () =
  let t = SM.create 42 in
  let acc = ref 0 in
  ignore (SM.next t);
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc lxor SM.next t lxor SM.below t 97
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  if words > 100.0 then
    Alcotest.failf "20 000 draws allocated %.0f minor words" words

let test_determinism () =
  let a = SM.create 12345 and b = SM.create 12345 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "same stream" (SM.next a) (SM.next b)
  done

let test_seed_sensitivity () =
  let a = SM.create 1 and b = SM.create 2 in
  let same = ref 0 in
  for _ = 1 to 1000 do
    if SM.next a = SM.next b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_below_range () =
  let r = SM.create 7 in
  for _ = 1 to 10_000 do
    let v = SM.below r 37 in
    if v < 0 || v >= 37 then Alcotest.fail "below out of range"
  done

let test_below_covers () =
  let r = SM.create 11 in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(SM.below r 10) <- true
  done;
  Array.iteri
    (fun i b -> Alcotest.(check bool) (Printf.sprintf "bucket %d hit" i) true b)
    seen

let test_float_range () =
  let r = SM.create 3 in
  for _ = 1 to 10_000 do
    let f = SM.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_float_mean () =
  let r = SM.create 5 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. SM.float r
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 0.5) > 0.01 then
    Alcotest.failf "mean %.4f far from 0.5" mean

let test_split_independence () =
  let parent = SM.create 9 in
  let c1 = SM.split parent 1 and c2 = SM.split parent 2 in
  let same = ref 0 in
  for _ = 1 to 1000 do
    if SM.next c1 = SM.next c2 then incr same
  done;
  Alcotest.(check int) "children differ" 0 !same

let test_uniformity_chi2 () =
  (* coarse chi-squared over 16 buckets; bound is generous but catches a
     broken mixer *)
  let r = SM.create 21 in
  let buckets = Array.make 16 0 in
  let n = 160_000 in
  for _ = 1 to n do
    let b = SM.below r 16 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = float_of_int n /. 16.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  if chi2 > 50.0 then Alcotest.failf "chi2 %.1f too large" chi2

let prop_below_bounds =
  QCheck.Test.make ~name:"below in bounds" ~count:1000
    QCheck.(pair (int_bound 1_000_000) (int_range 1 1_000_000))
    (fun (seed, n) ->
      let r = SM.create seed in
      let v = SM.below r n in
      v >= 0 && v < n)

let prop_next_nonneg =
  QCheck.Test.make ~name:"next is non-negative" ~count:1000 QCheck.int
    (fun seed ->
      let r = SM.create seed in
      SM.next r >= 0 && SM.next r >= 0 && SM.next r >= 0)

let () =
  Alcotest.run "splitmix"
    [
      ( "unit",
        [
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_draws_allocate_nothing;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "below range" `Quick test_below_range;
          Alcotest.test_case "below covers" `Quick test_below_covers;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "uniformity chi2" `Quick test_uniformity_chi2;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_below_bounds; prop_next_nonneg ] );
    ]
