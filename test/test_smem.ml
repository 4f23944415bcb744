(* Tests for simulated shared memory and its coherence cost model. *)

module Sched = Oa_simrt.Sched
module Smem = Oa_simrt.Smem
module CM = Oa_simrt.Cost_model

let cm = CM.amd_opteron
let mk ?(threads = 4) () =
  let s = Sched.create cm in
  (s, Smem.create s ~threads)

(* Measure the cycles charged by [f] when run as thread 0. *)
let cost_of s f =
  let r = ref 0 in
  Sched.run s ~n:1 (fun _ ->
      let t0 = Sched.clock s in
      f ();
      r := Sched.clock s - t0);
  !r

let test_read_write () =
  let s, m = mk () in
  let c = Smem.cell m 7 in
  Sched.run s ~n:1 (fun _ ->
      Alcotest.(check int) "initial" 7 (Smem.read m c);
      Smem.write m c 42;
      Alcotest.(check int) "after write" 42 (Smem.read m c))

let test_raw_outside_run () =
  let _, m = mk () in
  let c = Smem.cell m 1 in
  Alcotest.(check int) "raw read" 1 (Smem.read m c);
  Smem.write m c 2;
  Alcotest.(check int) "raw write" 2 (Smem.read m c);
  Alcotest.(check bool) "raw cas" true (Smem.cas m c 2 3);
  Alcotest.(check int) "raw faa" 3 (Smem.faa m c 10);
  Alcotest.(check int) "after faa" 13 (Smem.read m c)

let test_cas_semantics () =
  let s, m = mk () in
  let c = Smem.cell m 10 in
  Sched.run s ~n:1 (fun _ ->
      Alcotest.(check bool) "cas succeeds" true (Smem.cas m c 10 11);
      Alcotest.(check bool) "cas fails on mismatch" false (Smem.cas m c 10 12);
      Alcotest.(check int) "value from winner" 11 (Smem.read m c))

let test_cas_atomic_under_contention () =
  let s, m = mk () in
  let c = Smem.cell m 0 in
  let per_thread = 200 and n = 4 in
  Sched.run s ~n (fun _ ->
      for _ = 1 to per_thread do
        let rec incr () =
          let v = Smem.read m c in
          if not (Smem.cas m c v (v + 1)) then incr ()
        in
        incr ()
      done);
  Alcotest.(check int) "no lost updates" (n * per_thread) (Smem.read m c)

let test_faa_atomic () =
  let s, m = mk () in
  let c = Smem.cell m 0 in
  Sched.run s ~n:4 (fun _ ->
      for _ = 1 to 100 do
        ignore (Smem.faa m c 2)
      done);
  Alcotest.(check int) "faa total" 800 (Smem.read m c)

let test_hit_vs_miss_costs () =
  let s, m = mk () in
  let c = Smem.cell m 0 in
  (* first read is a (cold) miss, second a hit *)
  let first = cost_of s (fun () -> ignore (Smem.read m c)) in
  let s2 = Sched.create cm in
  let m2 = Smem.create s2 ~threads:1 in
  let c2 = Smem.cell m2 0 in
  let both =
    cost_of s2 (fun () ->
        ignore (Smem.read m2 c2);
        ignore (Smem.read m2 c2))
  in
  let second = both - first in
  Alcotest.(check int) "cold miss cost"
    (cm.CM.access_overhead + cm.CM.read_miss)
    first;
  Alcotest.(check int) "hit cost" (cm.CM.access_overhead + cm.CM.read_hit)
    second

let test_invalidation_by_writer () =
  (* thread 1's write makes thread 0's next read a miss *)
  let s, m = mk ~threads:2 () in
  let c = Smem.cell m 0 in
  let reread_cost = ref 0 in
  Sched.run s ~n:2 (fun tid ->
      if tid = 0 then begin
        ignore (Smem.read m c);
        (* wait for the writer *)
        Sched.charge s 10_000;
        Sched.force_yield s;
        let t0 = Sched.clock s in
        ignore (Smem.read m c);
        reread_cost := Sched.clock s - t0
      end
      else begin
        Sched.charge s 100;
        Sched.force_yield s;
        Smem.write m c 9
      end);
  Alcotest.(check int) "invalidated read is a miss"
    (cm.CM.access_overhead + cm.CM.read_miss)
    !reread_cost

let test_read_own_cheap () =
  let s, m = mk () in
  let c = Smem.cell m 0 in
  let cost = ref 0 in
  Sched.run s ~n:1 (fun _ ->
      ignore (Smem.read_own m c);
      let t0 = Sched.clock s in
      for _ = 1 to 10 do
        ignore (Smem.read_own m c)
      done;
      cost := Sched.clock s - t0);
  Alcotest.(check int) "resident own-reads cost 1 cycle" 10 !cost

let test_read_own_miss_after_foreign_write () =
  let s, m = mk ~threads:2 () in
  let c = Smem.cell m 0 in
  let costs = ref [] in
  Sched.run s ~n:2 (fun tid ->
      if tid = 0 then begin
        ignore (Smem.read_own m c);
        Sched.charge s 10_000;
        Sched.force_yield s;
        let t0 = Sched.clock s in
        ignore (Smem.read_own m c);
        costs := (Sched.clock s - t0) :: !costs;
        let t1 = Sched.clock s in
        ignore (Smem.read_own m c);
        costs := (Sched.clock s - t1) :: !costs
      end
      else begin
        Sched.charge s 100;
        Sched.force_yield s;
        Smem.write m c 1
      end);
  match !costs with
  | [ second; first ] ->
      Alcotest.(check int) "first own-read after foreign write misses"
        cm.CM.read_miss first;
      Alcotest.(check int) "subsequent own-read hits" 1 second
  | _ -> Alcotest.fail "expected two costs"

let test_node_fields_share_line () =
  (* fields of a node share a line: reading field 1 after field 0 is a hit
     even on first touch of field 1 *)
  let s, m = mk () in
  let cells = Smem.node_matrix m ~nodes:4 ~fields:3 in
  let second_cost = ref 0 in
  Sched.run s ~n:1 (fun _ ->
      ignore (Smem.read m cells.(0).(2));
      let t0 = Sched.clock s in
      ignore (Smem.read m cells.(1).(2));
      second_cost := Sched.clock s - t0);
  Alcotest.(check int) "same-node field read hits"
    (cm.CM.access_overhead + cm.CM.read_hit)
    !second_cost

let test_distinct_nodes_distinct_lines () =
  let s, m = mk () in
  let cells = Smem.node_matrix m ~nodes:2 ~fields:1 in
  let second_cost = ref 0 in
  Sched.run s ~n:1 (fun _ ->
      ignore (Smem.read m cells.(0).(0));
      let t0 = Sched.clock s in
      ignore (Smem.read m cells.(0).(1));
      second_cost := Sched.clock s - t0);
  Alcotest.(check int) "other node's line misses"
    (cm.CM.access_overhead + cm.CM.read_miss)
    !second_cost

let test_rcell_physical_cas () =
  let s, m = mk () in
  let v1 = [ 1; 2 ] in
  let v2 = [ 3 ] in
  let r = Smem.rcell m v1 in
  Sched.run s ~n:1 (fun _ ->
      (* a structurally equal but physically different value must fail;
         build the copy dynamically so the compiler cannot share it *)
      let copy = List.map (fun x -> x) v1 in
      Alcotest.(check bool) "structural copy fails" false
        (Smem.rcas m r copy v2);
      Alcotest.(check bool) "physical match succeeds" true
        (Smem.rcas m r v1 v2);
      Alcotest.(check bool) "value swapped" true (Smem.rread m r == v2))

let test_rcell_concurrent_push () =
  (* lock-free list push via rcas from several threads loses nothing *)
  let s, m = mk ~threads:4 () in
  let r = Smem.rcell m [] in
  Sched.run s ~n:4 (fun tid ->
      for i = 1 to 50 do
        let rec push () =
          let old = Smem.rread m r in
          if not (Smem.rcas m r old (((tid * 1000) + i) :: old)) then push ()
        in
        push ()
      done);
  Alcotest.(check int) "all pushes kept" 200 (List.length (Smem.rread m r))

let test_fence_cost () =
  let s, m = mk () in
  let c = cost_of s (fun () -> Smem.fence m) in
  Alcotest.(check int) "fence cost" cm.CM.fence c

let () =
  Alcotest.run "smem"
    [
      ( "semantics",
        [
          Alcotest.test_case "read/write" `Quick test_read_write;
          Alcotest.test_case "raw outside run" `Quick test_raw_outside_run;
          Alcotest.test_case "cas" `Quick test_cas_semantics;
          Alcotest.test_case "cas atomic under contention" `Quick
            test_cas_atomic_under_contention;
          Alcotest.test_case "faa atomic" `Quick test_faa_atomic;
          Alcotest.test_case "rcell physical cas" `Quick test_rcell_physical_cas;
          Alcotest.test_case "rcell concurrent push" `Quick
            test_rcell_concurrent_push;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "hit vs miss" `Quick test_hit_vs_miss_costs;
          Alcotest.test_case "invalidation by writer" `Quick
            test_invalidation_by_writer;
          Alcotest.test_case "read_own cheap" `Quick test_read_own_cheap;
          Alcotest.test_case "read_own foreign write" `Quick
            test_read_own_miss_after_foreign_write;
          Alcotest.test_case "node fields share line" `Quick
            test_node_fields_share_line;
          Alcotest.test_case "nodes on distinct lines" `Quick
            test_distinct_nodes_distinct_lines;
          Alcotest.test_case "fence cost" `Quick test_fence_cost;
        ] );
    ]
