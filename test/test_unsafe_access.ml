(* Differential test for the unchecked hot-path accessors.

   The flat substrate's optimistic-read contract lets Flat_mem index its
   words with unsafe_get/unsafe_set, Arena (fixed repr) address a node by
   unchecked block arithmetic, and Oa_alloc (elastic repr, reached through
   Arena.create_elastic) pick the chunk with unsafe_get before the same
   arithmetic: field ids are static and below n_fields, node indices were
   granted by the arena, and word-granular stores mean a stale optimistic
   read still yields a granted index, never a torn one.  That argument lives in
   comments next to each unsafe site; this test is its executable
   counterpart — every unchecked accessor is hammered against its
   bounds-checked twin ([get_checked]/[set_checked], [field_checked])
   over full index ranges with emphasis on the boundaries where an
   off-by-one in the flattened index arithmetic would land: word 0, the
   last word, cache-line edges, the last node of a fixed arena, and the
   seams between elastic chunks.  Both directions are exercised (write
   unsafe / read checked and vice versa) so neither side can be
   systematically offset from the other, on the sim and real backends,
   fixed and elastic arenas. *)

module Ptr = Oa_mem.Ptr
module Fm = Oa_runtime.Flat_mem
module CM = Oa_simrt.Cost_model

let with_sim f =
  let r = Oa_runtime.Sim_backend.make ~max_threads:4 CM.amd_opteron in
  f r

let with_real f = f (Oa_runtime.Real_backend.make ())

(* Values whose bit patterns catch sign/width mistakes in the index or
   value paths. *)
let probe_values =
  [| 0; 1; -1; 42; max_int; min_int; 0x5555_5555_5555_555; -0x0123_4567 |]

(* --- Flat_mem: unsafe word accessors vs the Bigarray-checked twins --- *)

let test_flat_mem_differential () =
  List.iter
    (fun words ->
      let b = Fm.alloc ~words in
      let len = Fm.length b in
      for i = 0 to len - 1 do
        let v = probe_values.(i mod Array.length probe_values) in
        (* unsafe write, checked read *)
        Fm.set b i v;
        Alcotest.(check int)
          (Printf.sprintf "set/get_checked word %d/%d" i len)
          v (Fm.get_checked b i);
        (* checked write, unsafe read *)
        let v' = lnot v in
        Fm.set_checked b i v';
        Alcotest.(check int)
          (Printf.sprintf "set_checked/get word %d/%d" i len)
          v' (Fm.get b i)
      done;
      (* neighbours survived: no write smeared into an adjacent word *)
      for i = 0 to len - 1 do
        Alcotest.(check int)
          (Printf.sprintf "word %d undisturbed" i)
          (lnot probe_values.(i mod Array.length probe_values))
          (Fm.get b i)
      done)
    (* one line, several lines, a non-multiple that rounds up, and a span
       big enough to cross page boundaries *)
    [ 1; Fm.line_words; Fm.line_words + 1; 1000 ]

let test_flat_mem_checked_bounds () =
  let b = Fm.alloc ~words:8 in
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
    | exception Failure _ -> true
  in
  Alcotest.(check bool)
    "get_checked past end raises" true
    (raises (fun () -> Fm.get_checked b (Fm.length b)));
  Alcotest.(check bool)
    "get_checked negative raises" true
    (raises (fun () -> Fm.get_checked b (-1)));
  Alcotest.(check bool)
    "set_checked past end raises" true
    (raises (fun () -> Fm.set_checked b (Fm.length b) 1))

(* --- Arena.field vs Arena.field_checked --- *)

(* Hammer every (node, field) slot of [a], whose nodes [0 .. nodes-1]
   have been granted by the arena: a value written through the unchecked
   cell must read back through the checked cell and vice versa.  Cells
   are handles to the same storage on every backend, so disagreement can
   only come from the flattened index arithmetic. *)
let hammer_arena (type c)
    (module R : Oa_runtime.Runtime_intf.S with type cell = c) a nodes
    ~field ~field_checked =
  let n_fields = 3 in
  for i = 0 to nodes - 1 do
    let p = Ptr.of_index i in
    for f = 0 to n_fields - 1 do
      let v = probe_values.((i + f) mod Array.length probe_values) in
      R.write (field a p f) v;
      Alcotest.(check int)
        (Printf.sprintf "node %d field %d unsafe->checked" i f)
        v
        (R.read (field_checked a p f));
      let v' = lnot v in
      R.write (field_checked a p f) v';
      Alcotest.(check int)
        (Printf.sprintf "node %d field %d checked->unsafe" i f)
        v'
        (R.read (field a p f))
    done
  done;
  (* a marked pointer addresses the same node as its unmarked form —
     the schemes read fields through possibly-marked next pointers *)
  let p = Ptr.of_index (nodes - 1) in
  R.write (field a (Ptr.mark p) 1) 77;
  Alcotest.(check int) "marked ptr aliases unmarked" 77
    (R.read (field_checked a p 1))

let test_arena_fixed r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  (* a capacity that is not a multiple of any line-derived carve size,
     so the last node sits hard against the end of the storage *)
  let nodes = 70 in
  let a = A.create ~capacity:nodes ~n_fields:3 in
  (match A.bump_range a nodes with
  | Some 0 -> ()
  | _ -> Alcotest.fail "bump_range should grant the whole arena");
  hammer_arena (module R) a nodes ~field:A.field ~field_checked:A.field_checked;
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool)
    "field_checked rejects field >= n_fields" true
    (raises (fun () -> A.field_checked a (Ptr.of_index 0) 3));
  Alcotest.(check bool)
    "field_checked rejects node >= capacity" true
    (raises (fun () -> A.field_checked a (Ptr.of_index nodes) 0))

let test_arena_elastic r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let chunk_nodes = 16 in
  let a = A.create_elastic ~chunk_nodes ~n_fields:3 () in
  (* span three chunks so the hammer crosses two chunk seams (indices
     15->16 and 31->32), where Oa_alloc's table/row/slot decomposition
     could go wrong without tripping a single-chunk test *)
  let nodes = (3 * chunk_nodes) - 6 in
  let granted = ref 0 in
  let dst = Array.make 8 0 in
  while !granted < nodes do
    let r = A.take a ~dst ~max:(min 8 (nodes - !granted)) in
    if r = 0 then ignore (A.grow a) else granted := !granted + r
  done;
  Alcotest.(check bool)
    "three chunks mapped" true
    (A.capacity a >= nodes);
  hammer_arena (module R) a nodes ~field:A.field ~field_checked:A.field_checked;
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool)
    "field_checked rejects field >= n_fields" true
    (raises (fun () -> A.field_checked a (Ptr.of_index 0) 3));
  Alcotest.(check bool)
    "field_checked rejects unmapped node" true
    (raises (fun () -> A.field_checked a (Ptr.of_index (A.capacity a)) 0))

(* Release a whole chunk back to the OS, then verify the seam nodes of
   the neighbouring live chunks still read through both accessor paths
   (the mapping survives decommit — Assumption 3.1). *)
let test_arena_elastic_release_seam r () =
  let module R = (val r : Oa_runtime.Runtime_intf.S) in
  let module A = Oa_mem.Arena.Make (R) in
  let chunk_nodes = 16 in
  let a = A.create_elastic ~chunk_nodes ~n_fields:3 () in
  let nodes = 3 * chunk_nodes in
  let dst = Array.make chunk_nodes 0 in
  let granted = ref 0 in
  while !granted < nodes do
    let r = A.take a ~dst ~max:chunk_nodes in
    if r = 0 then ignore (A.grow a) else granted := !granted + r
  done;
  for i = 0 to nodes - 1 do
    A.write a (Ptr.of_index i) 0 (1000 + i)
  done;
  (* free the middle chunk entirely *)
  for i = chunk_nodes to (2 * chunk_nodes) - 1 do
    ignore (A.release a i)
  done;
  List.iter
    (fun i ->
      let p = Ptr.of_index i in
      Alcotest.(check int)
        (Printf.sprintf "seam node %d agrees post-release" i)
        (R.read (A.field_checked a p 0))
        (R.read (A.field a p 0));
      Alcotest.(check int)
        (Printf.sprintf "seam node %d kept its value" i)
        (1000 + i)
        (R.read (A.field a p 0)))
    [ 0; chunk_nodes - 1; 2 * chunk_nodes; nodes - 1 ];
  (* the decommitted chunk's storage still reads (zero or stale, never a
     fault) through both paths *)
  let mid = Ptr.of_index (chunk_nodes + 3) in
  Alcotest.(check int)
    "decommitted node agrees across paths"
    (R.read (A.field_checked a mid 0))
    (R.read (A.field a mid 0))

let backend_cases name with_r =
  [
    Alcotest.test_case
      (Printf.sprintf "fixed arena differential (%s)" name)
      `Quick
      (fun () -> with_r (fun r -> test_arena_fixed r ()));
    Alcotest.test_case
      (Printf.sprintf "elastic arena differential (%s)" name)
      `Quick
      (fun () -> with_r (fun r -> test_arena_elastic r ()));
    Alcotest.test_case
      (Printf.sprintf "elastic release seam (%s)" name)
      `Quick
      (fun () -> with_r (fun r -> test_arena_elastic_release_seam r ()));
  ]

let () =
  Alcotest.run "unsafe_access"
    [
      ( "flat_mem",
        [
          Alcotest.test_case "unsafe vs checked words" `Quick
            test_flat_mem_differential;
          Alcotest.test_case "checked accessors bound-check" `Quick
            test_flat_mem_checked_bounds;
        ] );
      ("arena_sim", backend_cases "sim" with_sim);
      ("arena_real", backend_cases "real" with_real);
    ]
