(* White-box tests of structure internals: hash bucket sizing and spread,
   skip-list level distribution and multi-level shape, anchors wiring. *)

module Ptr = Oa_mem.Ptr
module I = Oa_core.Smr_intf
module CM = Oa_simrt.Cost_model

let cfg = { I.default_config with I.chunk_size = 8 }

module R = (val Oa_runtime.Sim_backend.make ~max_threads:2 CM.amd_opteron)
module S = Oa_core.Oa.Make (R)
module H = Oa_structures.Hash_table.Make (S)
module Sl = Oa_structures.Skip_list.Make (S)
module L = Oa_structures.Linked_list.Make (S)

(* --- hash table --- *)

let test_bucket_count_load_factor () =
  (* smallest power of two with load factor <= 0.75 *)
  Alcotest.(check int) "10000 keys -> 16384 buckets" 16_384
    (Oa_structures.Hash_table.bucket_count ~expected_size:10_000);
  Alcotest.(check int) "64 keys -> minimum 128" 128
    (Oa_structures.Hash_table.bucket_count ~expected_size:64);
  Alcotest.(check int) "tiny tables get the floor" 16
    (Oa_structures.Hash_table.bucket_count ~expected_size:4)

let test_bucket_spread () =
  (* sequential keys must spread: no bucket takes more than a small
     multiple of the mean.  Buckets are counted by index: on the
     simulator the eight packed heads of one line are structurally equal
     cells, so the head cells themselves are no key. *)
  let t = H.create ~capacity:4096 ~expected_size:512 cfg in
  let counts = Hashtbl.create 64 in
  for k = 1 to 2048 do
    let b = H.bucket_index t k in
    let c = try Hashtbl.find counts b with Not_found -> 0 in
    Hashtbl.replace counts b (c + 1)
  done;
  let n_buckets = H.n_buckets t in
  let mean = 2048. /. float_of_int n_buckets in
  Hashtbl.iter
    (fun _ c ->
      if float_of_int c > 8. *. mean then
        Alcotest.failf "bucket with %d of 2048 keys (mean %.1f)" c mean)
    counts;
  Alcotest.(check bool) "many buckets used" true
    (Hashtbl.length counts > n_buckets / 4)

let test_hash_same_key_same_bucket () =
  let t = H.create ~capacity:1024 ~expected_size:64 cfg in
  for k = 1 to 100 do
    Alcotest.(check bool) "stable" true (H.bucket t k == H.bucket t k)
  done

(* --- skip list --- *)

let test_random_level_distribution () =
  let t = Sl.create ~capacity:64 cfg in
  let ctx = Sl.register ~seed:42 t in
  let n = 100_000 in
  let counts = Array.make (Sl.max_level + 1) 0 in
  for _ = 1 to n do
    let l = Sl.random_level ctx in
    if l < 1 || l > Sl.max_level then Alcotest.failf "level %d out of range" l;
    counts.(l) <- counts.(l) + 1
  done;
  (* geometric with p = 1/2: ~half the nodes at level 1, ~quarter at 2 *)
  let f l = float_of_int counts.(l) /. float_of_int n in
  if abs_float (f 1 -. 0.5) > 0.02 then Alcotest.failf "P(level 1) = %.3f" (f 1);
  if abs_float (f 2 -. 0.25) > 0.02 then Alcotest.failf "P(level 2) = %.3f" (f 2);
  if abs_float (f 3 -. 0.125) > 0.02 then Alcotest.failf "P(level 3) = %.3f" (f 3)

let test_skiplist_builds_towers () =
  (* with enough nodes, some have level >= 4 and all levels are
     subsequences of level 0 (validate checks this) *)
  let skip_cfg =
    { cfg with I.hp_slots = Sl.hp_slots_needed; max_cas = Sl.max_cas_needed }
  in
  let t = Sl.create ~capacity:4096 skip_cfg in
  let ctx = Sl.register ~seed:3 t in
  for k = 1 to 500 do
    ignore (Sl.insert ctx k)
  done;
  (match Sl.validate t ~limit:10_000 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* count nodes reachable at level 3: should be roughly 500/8 *)
  let rec count p acc =
    if Ptr.is_null p then acc
    else count (Ptr.unmark (R.read (Sl.next_cell t (Ptr.unmark p) 3))) (acc + 1)
  in
  let at3 = count (R.read (Sl.next_cell t (Sl.head t) 3)) 0 in
  Alcotest.(check bool) "tall towers exist" true (at3 > 20 && at3 < 140)

let test_skiplist_delete_marks_all_levels () =
  let skip_cfg =
    { cfg with I.hp_slots = Sl.hp_slots_needed; max_cas = Sl.max_cas_needed }
  in
  let t = Sl.create ~capacity:256 skip_cfg in
  let ctx = Sl.register ~seed:9 t in
  for k = 1 to 50 do
    ignore (Sl.insert ctx k)
  done;
  (* find a tall node *)
  let tall = ref Ptr.null in
  let p = ref (R.read (Sl.next_cell t (Sl.head t) 0)) in
  while Ptr.is_null !tall && not (Ptr.is_null !p) do
    let u = Ptr.unmark !p in
    if R.read (Sl.level_cell t u) >= 3 then tall := u;
    p := Ptr.unmark (R.read (Sl.next_cell t u 0))
  done;
  Alcotest.(check bool) "found a tall node" false (Ptr.is_null !tall);
  let key = R.read (Sl.key_cell t !tall) in
  Alcotest.(check bool) "delete succeeds" true (Sl.delete ctx key);
  (* every level of the victim is marked *)
  let lvl = R.read (Sl.level_cell t !tall) in
  for l = 0 to lvl - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "level %d marked" l)
      true
      (Ptr.is_marked (R.read (Sl.next_cell t !tall l)))
  done

let test_skiplist_concurrent_winner_unique () =
  (* two threads race to delete the same key: exactly one wins *)
  let r2 = Oa_runtime.Sim_backend.make ~seed:8 ~max_threads:2 CM.amd_opteron in
  let module R2 = (val r2) in
  let module S2 = Oa_core.Oa.Make (R2) in
  let module Sl2 = Oa_structures.Skip_list.Make (S2) in
  let skip_cfg =
    { cfg with I.hp_slots = Sl2.hp_slots_needed; max_cas = Sl2.max_cas_needed }
  in
  let t = Sl2.create ~capacity:512 skip_cfg in
  let wins = Array.make 2 0 in
  R2.par_run ~n:2 (fun tid ->
      let ctx = Sl2.register ~seed:(tid + 1) t in
      if tid = 0 then
        for k = 1 to 40 do
          ignore (Sl2.insert ctx k)
        done);
  R2.par_run ~n:2 (fun tid ->
      let ctx = Sl2.register ~seed:(10 + tid) t in
      for k = 1 to 40 do
        if Sl2.delete ctx k then wins.(tid) <- wins.(tid) + 1
      done);
  Alcotest.(check int) "every key deleted exactly once" 40
    (wins.(0) + wins.(1));
  Alcotest.(check (list int)) "empty" [] (Sl2.to_list t)

(* --- linked list --- *)

let test_list_successor_function () =
  let t = L.create ~capacity:128 cfg in
  let ctx = L.register t in
  ignore (L.insert ctx 1);
  ignore (L.insert ctx 2);
  let n1 = Ptr.unmark (R.read (L.head t)) in
  let n2 = L.successor t n1 in
  Alcotest.(check int) "successor is the next node" 2
    (R.read (L.key_cell t n2));
  Alcotest.(check bool) "tail successor is null" true
    (Ptr.is_null (L.successor t n2))

let test_list_physical_delete_on_traversal () =
  (* after a delete (logical only), a traversal unlinks and retires *)
  let t = L.create ~capacity:128 cfg in
  let ctx = L.register t in
  for k = 1 to 5 do
    ignore (L.insert ctx k)
  done;
  ignore (L.delete ctx 3);
  (* logically deleted: still physically linked *)
  let hops_before =
    let rec go p n =
      if Ptr.is_null p then n
      else go (R.read (L.next_cell t (Ptr.unmark p))) (n + 1)
    in
    go (R.read (L.head t)) 0
  in
  Alcotest.(check int) "node still linked after logical delete" 5 hops_before;
  ignore (L.contains ctx 5);
  let hops_after =
    let rec go p n =
      if Ptr.is_null p then n
      else go (R.read (L.next_cell t (Ptr.unmark p))) (n + 1)
    in
    go (R.read (L.head t)) 0
  in
  Alcotest.(check int) "traversal physically unlinked it" 4 hops_after

let () =
  Alcotest.run "structure_internals"
    [
      ( "hash table",
        [
          Alcotest.test_case "bucket count" `Quick test_bucket_count_load_factor;
          Alcotest.test_case "bucket spread" `Quick test_bucket_spread;
          Alcotest.test_case "bucket stability" `Quick
            test_hash_same_key_same_bucket;
        ] );
      ( "skip list",
        [
          Alcotest.test_case "level distribution" `Quick
            test_random_level_distribution;
          Alcotest.test_case "towers" `Quick test_skiplist_builds_towers;
          Alcotest.test_case "delete marks all levels" `Quick
            test_skiplist_delete_marks_all_levels;
          Alcotest.test_case "unique delete winner" `Quick
            test_skiplist_concurrent_winner_unique;
        ] );
      ( "linked list",
        [
          Alcotest.test_case "successor" `Quick test_list_successor_function;
          Alcotest.test_case "lazy physical delete" `Quick
            test_list_physical_delete_on_traversal;
        ] );
    ]
