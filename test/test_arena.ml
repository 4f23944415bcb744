(* Tests for the node arena over both backends. *)

module Ptr = Oa_mem.Ptr
module CM = Oa_simrt.Cost_model

let with_sim f =
  let r = Oa_runtime.Sim_backend.make ~max_threads:4 CM.amd_opteron in
  f r

let with_real f = f (Oa_runtime.Real_backend.make ())

let test_field_addressing r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create ~capacity:16 ~n_fields:3 in
  Alcotest.(check int) "capacity" 16 (A.capacity a);
  Alcotest.(check int) "n_fields" 3 (A.n_fields a);
  (* distinct (node, field) slots are independent *)
  for i = 0 to 15 do
    for f = 0 to 2 do
      A.write a (Ptr.of_index i) f ((100 * i) + f)
    done
  done;
  for i = 0 to 15 do
    for f = 0 to 2 do
      Alcotest.(check int) "slot value" ((100 * i) + f)
        (A.read a (Ptr.of_index i) f)
    done
  done

let test_cas_field r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create ~capacity:4 ~n_fields:2 in
  let p = Ptr.of_index 2 in
  A.write a p 1 5;
  Alcotest.(check bool) "cas ok" true (A.cas a p 1 ~expected:5 6);
  Alcotest.(check bool) "cas stale" false (A.cas a p 1 ~expected:5 7);
  Alcotest.(check int) "cas result" 6 (A.read a p 1)

let test_bump_range r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create ~capacity:10 ~n_fields:1 in
  (match A.bump_range a 4 with
  | Some 0 -> ()
  | _ -> Alcotest.fail "first range should start at 0");
  (match A.bump_range a 4 with
  | Some 4 -> ()
  | _ -> Alcotest.fail "second range should start at 4");
  (match A.bump_range a 4 with
  | None -> ()
  | Some _ -> Alcotest.fail "over-capacity range should fail");
  (* leftover smaller grabs may still fail once the counter overshot *)
  Alcotest.(check bool) "bump_used within capacity" true (A.bump_used a <= 10)

let test_bump_exhaustion_is_sticky r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create ~capacity:4 ~n_fields:1 in
  ignore (A.bump_range a 4);
  Alcotest.(check bool) "exhausted" true (A.bump_range a 1 = None);
  Alcotest.(check bool) "still exhausted" true (A.bump_range a 1 = None)

let test_zero_node r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create ~capacity:4 ~n_fields:3 in
  let p = Ptr.of_index 1 in
  for f = 0 to 2 do
    A.write a p f 99
  done;
  A.zero_node a p;
  for f = 0 to 2 do
    Alcotest.(check int) "zeroed" 0 (A.read a p f)
  done

let test_stale_read_never_faults r () =
  (* Assumption 3.1 by construction: a "dangling" pointer read returns the
     new owner's data instead of faulting. *)
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create ~capacity:4 ~n_fields:1 in
  let p = Ptr.of_index 0 in
  A.write a p 0 111;
  let dangling = p in
  (* "reclaim" and reuse node 0 for something else *)
  A.zero_node a p;
  A.write a p 0 222;
  Alcotest.(check int) "stale read sees new owner's value" 222
    (A.read a dangling 0)

let test_invalid_args r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  Alcotest.check_raises "zero capacity" (Invalid_argument "Arena.create")
    (fun () -> ignore (A.create ~capacity:0 ~n_fields:1));
  Alcotest.check_raises "zero fields" (Invalid_argument "Arena.create")
    (fun () -> ignore (A.create ~capacity:1 ~n_fields:0))

(* --- the elastic representation --- *)

let test_elastic_grow_past_chunk r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create_elastic ~chunk_nodes:8 ~n_fields:2 () in
  Alcotest.(check bool) "is elastic" true (A.is_elastic a);
  Alcotest.(check int) "one chunk mapped" 8 (A.capacity a);
  let dst = Array.make 8 (-1) in
  Alcotest.(check int) "first chunk drains" 8 (A.take a ~dst ~max:8);
  (* chunk exhausted: take reports dry, grow maps another *)
  Alcotest.(check int) "dry" 0 (A.take a ~dst ~max:1);
  Alcotest.(check bool) "grow succeeds" true (A.grow a);
  Alcotest.(check int) "capacity doubled" 16 (A.capacity a);
  Alcotest.(check int) "fresh slots flow" 1 (A.take a ~dst ~max:1);
  (* indices keep working across the chunk boundary *)
  A.write a (Ptr.of_index dst.(0)) 1 77;
  Alcotest.(check int) "cross-chunk slot usable" 77
    (A.read a (Ptr.of_index dst.(0)) 1)

let test_elastic_reuse_after_release r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create_elastic ~chunk_nodes:8 ~n_fields:1 () in
  let dst = Array.make 4 (-1) in
  Alcotest.(check int) "got 4" 4 (A.take a ~dst ~max:4);
  let victim = dst.(2) in
  ignore (A.release a victim);
  (* recycled slots are preferred over fresh bump space *)
  let dst' = Array.make 1 (-1) in
  Alcotest.(check int) "got recycled" 1 (A.take a ~dst:dst' ~max:1);
  Alcotest.(check int) "same slot came back" victim dst'.(0)

let test_elastic_shrink_then_regrow r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create_elastic ~chunk_nodes:8 ~n_fields:2 () in
  let dst = Array.make 8 (-1) in
  Alcotest.(check int) "chunk drained" 8 (A.take a ~dst ~max:8);
  Array.iter (fun i -> A.write a (Ptr.of_index i) 0 (i + 1)) dst;
  (* releasing the last outstanding slot decommits the whole chunk *)
  let decommits = ref 0 in
  Array.iter (fun i -> if A.release a i then incr decommits) dst;
  Alcotest.(check int) "exactly one decommit" 1 !decommits;
  Alcotest.(check int) "no chunk live"
    0
    (List.assoc "mem_chunks_live" (A.gauges a));
  Alcotest.(check int) "still mapped" 1
    (List.assoc "mem_chunks_mapped" (A.gauges a));
  (* Assumption 3.1 across shrink: stale reads yield zeros, not faults *)
  Array.iter
    (fun i ->
      Alcotest.(check int) "decommitted slot reads zero" 0
        (A.read a (Ptr.of_index i) 0))
    dst;
  (* regrow: taking from the decommitted chunk re-opens it *)
  let dst' = Array.make 3 (-1) in
  Alcotest.(check int) "reopen grants slots" 3 (A.take a ~dst:dst' ~max:3);
  Alcotest.(check int) "chunk live again" 1
    (List.assoc "mem_chunks_live" (A.gauges a));
  Array.iter
    (fun i ->
      A.write a (Ptr.of_index i) 1 9;
      Alcotest.(check int) "reopened slot usable" 9
        (A.read a (Ptr.of_index i) 1))
    dst'

let test_elastic_region_spans_chunks r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create_elastic ~chunk_nodes:8 ~n_fields:1 () in
  (* a sentinel block larger than a chunk: consecutive indices across a
     dedicated run of chunks *)
  match A.bump_range a 20 with
  | None -> Alcotest.fail "multi-chunk region should map"
  | Some first ->
      for i = first to first + 19 do
        A.write a (Ptr.of_index i) 0 (i + 1)
      done;
      for i = first to first + 19 do
        Alcotest.(check int) "region slot holds" (i + 1)
          (A.read a (Ptr.of_index i) 0)
      done;
      Alcotest.(check bool) "table grew to cover the run" true
        (A.capacity a >= first + 20)

let test_elastic_gauges_track_commit r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create_elastic ~chunk_nodes:8 ~n_fields:1 () in
  let committed () = List.assoc "mem_committed_bytes" (A.gauges a) in
  let base = committed () in
  Alcotest.(check bool) "one chunk committed" true (base > 0);
  ignore (A.grow a);
  Alcotest.(check int) "grow doubles the gauge" (2 * base) (committed ())

let test_concurrent_bump_disjoint () =
  (* threads bump-allocating concurrently receive disjoint ranges *)
  let r = Oa_runtime.Sim_backend.make ~max_threads:4 CM.amd_opteron in
  let module R = (val r) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = A.create ~capacity:1000 ~n_fields:1 in
  let grabbed = Array.make 4 [] in
  R.par_run ~n:4 (fun tid ->
      let rec go () =
        match A.bump_range a 7 with
        | Some first ->
            grabbed.(tid) <- first :: grabbed.(tid);
            go ()
        | None -> ()
      in
      go ());
  let all = Array.to_list grabbed |> List.concat |> List.sort compare in
  let rec disjoint = function
    | a :: (b :: _ as rest) ->
        if b - a < 7 then Alcotest.fail "overlapping ranges" else disjoint rest
    | _ -> ()
  in
  disjoint all;
  Alcotest.(check bool) "most of arena used" true (List.length all >= 140)

(* --- heap footprint ---

   Node storage is a runtime block addressed by arithmetic, so creating or
   growing an arena allocates a constant amount of OCaml heap whatever its
   node count: no per-node or per-slot handle tables. *)

let heap_budget = 64. *. 1024.

(* OCaml heap bytes allocated while running [f]: minor words plus words
   allocated directly in the major heap.  Counted in words and converted,
   because [Gc.allocated_bytes] on OCaml 5.1 adds its minor part in words. *)
let allocated f =
  let m0 = Gc.minor_words () and _, p0, mj0 = Gc.counters () in
  let r = f () in
  let m1 = Gc.minor_words () and _, p1, mj1 = Gc.counters () in
  ignore (Sys.opaque_identity r);
  let words = m1 -. m0 +. (mj1 -. mj0 -. (p1 -. p0)) in
  words *. float_of_int (Sys.word_size / 8)

let check_heap what ~budget bytes =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f bytes under %.0f" what bytes budget)
    true (bytes < budget)

let test_heap_fixed () =
  let module R = (val Oa_runtime.Real_backend.make ()) in
  let module A = Oa_mem.Arena.Make (R) in
  let bytes =
    allocated (fun () -> A.create ~capacity:1_000_000 ~n_fields:2)
  in
  check_heap "1M-node fixed arena" ~budget:heap_budget bytes

let test_heap_elastic () =
  let module R = (val Oa_runtime.Real_backend.make ()) in
  let module A = Oa_mem.Arena.Make (R) in
  let a = ref None in
  let bytes =
    allocated (fun () ->
        let e = A.create_elastic ~n_fields:2 () in
        for _ = 2 to 8 do
          if not (A.grow e) then Alcotest.fail "grow refused"
        done;
        a := Some e)
  in
  let e = Option.get !a in
  Alcotest.(check int) "8 chunks mapped" 8
    (List.assoc "mem_chunks_mapped" (A.gauges e));
  check_heap "elastic arena, 8 chunks" ~budget:heap_budget bytes

(* OCaml heap words [f]'s result keeps alive, in bytes: the live heap
   after a full major collection, before and after.  Transient garbage
   (option boxes, closures) does not count — only what is retained. *)
let retained f =
  Gc.full_major ();
  let l0 = (Gc.stat ()).Gc.live_words in
  let r = f () in
  Gc.full_major ();
  let l1 = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity r);
  float_of_int ((l1 - l0) * (Sys.word_size / 8))

(* A hash table retains nothing size-proportional on the OCaml heap:
   its nodes live in the arena's block and its bucket heads in a second
   block beside it, both addressed by arithmetic — 2^20 buckets and a
   1M-node arena stay under the same budget as a bare arena. *)
let test_heap_hash_table () =
  let module R = (val Oa_runtime.Real_backend.make ()) in
  let module S = Oa_core.Oa.Make (R) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let expected_size = 786_432 in
  Alcotest.(check int) "2^20 buckets" (1 lsl 20)
    (Oa_structures.Hash_table.bucket_count ~expected_size);
  let bytes =
    retained (fun () ->
        H.create ~capacity:1_000_000 ~expected_size
          Oa_core.Smr_intf.default_config)
  in
  check_heap "hash table, 2^20 buckets, 1M-node arena" ~budget:heap_budget
    bytes

(* --- packed bucket heads --- *)

(* Bucket heads are packed eight to a line: an insert (and the unlink
   after a delete) rewrites its own head word and no other on the
   line. *)
let test_head_neighbours r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module S = Oa_core.Oa.Make (R) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let t =
    H.create ~capacity:4096 ~expected_size:512 Oa_core.Smr_intf.default_config
  in
  let ctx = H.register t in
  (* the smallest key landing in [b] *)
  let key_in b =
    let rec go k = if H.bucket_index t k = b then k else go (k + 1) in
    go 1
  in
  let line = 5 in
  let heads () =
    List.init 8 (fun i -> R.read (H.bucket_head t ((8 * line) + i)))
  in
  (* populate the line's other buckets so their heads are not all null *)
  for i = 0 to 7 do
    if i <> 3 then ignore (H.insert t ctx (key_in ((8 * line) + i)))
  done;
  let before = heads () in
  let b = (8 * line) + 3 in
  let k = key_in b in
  let check_others what after =
    List.iteri
      (fun i (x, y) ->
        if i <> 3 then
          Alcotest.(check int) (Printf.sprintf "%s: head %d" what i) x y)
      (List.combine before after)
  in
  Alcotest.(check bool) "insert" true (H.insert t ctx k);
  let after = heads () in
  Alcotest.(check bool) "own head set" false
    (Ptr.is_null (List.nth after 3));
  check_others "insert" after;
  Alcotest.(check bool) "delete" true (H.delete t ctx k);
  Alcotest.(check bool) "gone" false (H.contains t ctx k);
  let after = heads () in
  Alcotest.(check bool) "own head unlinked" true
    (Ptr.is_null (List.nth after 3));
  check_others "delete" after

(* The committed-memory gauge counts the heads too: they sit outside the
   arena but are resident for the table's lifetime.  Its node bytes come
   from the backend's one stride rule — two words for a list node, so
   four nodes to a line. *)
let test_head_gauge () =
  let module R = (val Oa_runtime.Real_backend.make ()) in
  let module S = Oa_core.Oa.Make (R) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let capacity = 4096 in
  let t =
    H.create ~capacity ~expected_size:1000 Oa_core.Smr_intf.default_config
  in
  let ctx = H.register t in
  for k = 1 to 1000 do
    ignore (H.insert t ctx k)
  done;
  let stride = Oa_runtime.Real_backend.node_stride ~nodes:capacity ~fields:2 in
  Alcotest.(check int) "list nodes take 2 words" 2 stride;
  Alcotest.(check int) "bump_used * stride * 8 + n_buckets * 8"
    ((H.A.bump_used (H.arena t) * stride * 8) + (H.n_buckets t * 8))
    (List.assoc "mem_committed_bytes" (H.gauges t))

let both name f =
  [
    Alcotest.test_case (name ^ " (sim)") `Quick (fun () -> with_sim (fun r -> f r ()));
    Alcotest.test_case (name ^ " (real)") `Quick (fun () ->
        with_real (fun r -> f r ()));
  ]

let () =
  Alcotest.run "arena"
    [
      ( "unit",
        List.concat
          [
            both "field addressing" test_field_addressing;
            both "cas field" test_cas_field;
            both "bump range" test_bump_range;
            both "bump exhaustion sticky" test_bump_exhaustion_is_sticky;
            both "zero node" test_zero_node;
            both "stale read never faults" test_stale_read_never_faults;
            both "invalid args" test_invalid_args;
          ] );
      ( "elastic",
        List.concat
          [
            both "grow past chunk" test_elastic_grow_past_chunk;
            both "reuse after release" test_elastic_reuse_after_release;
            both "shrink then regrow" test_elastic_shrink_then_regrow;
            both "region spans chunks" test_elastic_region_spans_chunks;
            both "gauges track commit" test_elastic_gauges_track_commit;
          ] );
      ( "heap footprint",
        [
          Alcotest.test_case "fixed arena" `Quick test_heap_fixed;
          Alcotest.test_case "elastic arena" `Quick test_heap_elastic;
          Alcotest.test_case "hash table" `Quick test_heap_hash_table;
        ] );
      ( "bucket heads",
        both "neighbours unchanged" test_head_neighbours
        @ [ Alcotest.test_case "committed gauge" `Quick test_head_gauge ] );
      ( "concurrent",
        [
          Alcotest.test_case "disjoint bump ranges" `Quick
            test_concurrent_bump_disjoint;
        ] );
    ]
