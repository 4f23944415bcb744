(* Tests for the real (OCaml domains) backend over its flat arena. *)

module Rb = Oa_runtime.Real_backend

let test_cells () =
  let module R = (val Rb.make ()) in
  let c = R.cell 5 in
  Alcotest.(check int) "read" 5 (R.read c);
  R.write c 6;
  Alcotest.(check int) "write" 6 (R.read c);
  Alcotest.(check bool) "cas ok" true (R.cas c 6 7);
  Alcotest.(check bool) "cas stale" false (R.cas c 6 8);
  Alcotest.(check int) "faa" 7 (R.faa c 3);
  Alcotest.(check int) "after faa" 10 (R.read c);
  Alcotest.(check int) "read_own" 10 (R.read_own c)

let test_rcells () =
  let module R = (val Rb.make ()) in
  let v1 = ref 1 and v2 = ref 2 in
  let rc = R.rcell v1 in
  Alcotest.(check bool) "physical eq read" true (R.rread rc == v1);
  Alcotest.(check bool) "rcas ok" true (R.rcas rc v1 v2);
  Alcotest.(check bool) "rcas stale" false (R.rcas rc v1 v2);
  R.rwrite rc v1;
  Alcotest.(check bool) "rwrite" true (R.rread rc == v1)

let test_par_run_tids () =
  let module R = (val Rb.make ()) in
  let seen = Array.make 4 (-1) in
  R.par_run ~n:4 (fun tid -> seen.(tid) <- R.tid ());
  Array.iteri
    (fun i t -> Alcotest.(check int) (Printf.sprintf "tid %d" i) i t)
    seen;
  Alcotest.(check int) "outside run" (-1) (R.tid ());
  Alcotest.(check int) "n_threads recorded" 4 (R.n_threads ())

let test_par_run_concurrent_faa () =
  let module R = (val Rb.make ()) in
  let c = R.cell 0 in
  R.par_run ~n:4 (fun _ ->
      for _ = 1 to 10_000 do
        ignore (R.faa c 1)
      done);
  Alcotest.(check int) "no lost increments" 40_000 (R.read c)

let test_par_run_concurrent_cas () =
  let module R = (val Rb.make ()) in
  let c = R.cell 0 in
  R.par_run ~n:4 (fun _ ->
      for _ = 1 to 2_000 do
        let rec go backoff =
          let v = R.read c in
          if not (R.cas c v (v + 1)) then begin
            for _ = 1 to backoff do
              R.cpu_relax ()
            done;
            go (min (2 * backoff) 64)
          end
        in
        go 1
      done);
  Alcotest.(check int) "cas loop correct" 8_000 (R.read c)

let test_elapsed_positive () =
  let module R = (val Rb.make ()) in
  R.par_run ~n:2 (fun _ -> R.stall 1_000_000 (* ~1ms *));
  Alcotest.(check bool) "elapsed measured" true (R.elapsed_seconds () > 0.0)

let test_max_threads_enforced () =
  let module R = (val Rb.make ~max_threads:2 ()) in
  Alcotest.check_raises "too many threads"
    (Invalid_argument "Real_backend.par_run: too many threads") (fun () ->
      R.par_run ~n:3 (fun _ -> ()))

let test_work_and_op_work_are_noops () =
  let module R = (val Rb.make ()) in
  R.work 1_000_000;
  R.op_work ();
  R.fence ();
  R.cpu_relax ();
  Alcotest.(check pass) "no effect" () ()

let test_node_block_shape () =
  let module R = (val Rb.make ()) in
  let b = R.node_block ~nodes:3 ~fields:2 in
  let stride = Rb.node_stride ~nodes:3 ~fields:2 in
  Alcotest.(check int) "2-field nodes pack four to a line"
    (Oa_runtime.Flat_mem.line_words / 4)
    stride;
  R.write (R.node_cell b 2 1) 9;
  R.write (R.node_cell b 1 1) 4;
  Alcotest.(check int) "node_cell is base + j*stride + f" 9
    (R.read (R.node_cell b 0 ((2 * stride) + 1)));
  Alcotest.(check int) "independent slots" 0 (R.read (R.node_cell b 2 0));
  Alcotest.(check int) "written slot" 9 (R.read (R.node_cell b 2 1));
  (* zero_node restores one node's initial state, leaving its neighbour *)
  R.zero_node b 2;
  Alcotest.(check int) "zeroed" 0 (R.read (R.node_cell b 2 1));
  Alcotest.(check int) "neighbour kept" 4 (R.read (R.node_cell b 1 1))

let test_sequential_par_runs () =
  let module R = (val Rb.make ()) in
  let c = R.cell 0 in
  R.par_run ~n:2 (fun _ -> ignore (R.faa c 1));
  R.par_run ~n:3 (fun _ -> ignore (R.faa c 1));
  Alcotest.(check int) "both runs executed" 5 (R.read c)

let () =
  let case name test = Alcotest.test_case (name ^ " (flat)") `Quick test in
  Alcotest.run "real_backend"
    [
      ( "cells",
        [
          case "word cells" test_cells;
          case "boxed rcells" test_rcells;
          case "node cells" test_node_block_shape;
        ] );
      ( "domains",
        [
          case "tids" test_par_run_tids;
          case "concurrent faa" test_par_run_concurrent_faa;
          case "concurrent cas" test_par_run_concurrent_cas;
          case "elapsed" test_elapsed_positive;
          case "max threads" test_max_threads_enforced;
          case "work is free" test_work_and_op_work_are_noops;
          case "sequential runs" test_sequential_par_runs;
        ] );
    ]
