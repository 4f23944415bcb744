(* Tests for the flat atomic arena (Flat_mem + the flat real backend).

   The hammer tests run real domains against one buffer: conservation
   under concurrent FAA/CAS on a shared word, independence of disjoint
   words, and arena recycling round-trips on the flat backend. *)

module Fm = Oa_runtime.Flat_mem
module Rb = Oa_runtime.Real_backend

let test_alignment_and_rounding () =
  List.iter
    (fun words ->
      let b = Fm.alloc ~words in
      Alcotest.(check bool)
        (Printf.sprintf "64-byte aligned (%d words)" words)
        true
        (Fm.addr b land 63 = 0);
      Alcotest.(check bool)
        "rounded up to whole lines" true
        (Fm.length b >= words && Fm.length b mod Fm.line_words = 0))
    [ 1; 7; 8; 9; 1000 ]

let test_alloc_rejects_garbage () =
  Alcotest.check_raises "zero words" (Invalid_argument "Flat_mem.alloc")
    (fun () -> ignore (Fm.alloc ~words:0));
  Alcotest.check_raises "negative words" (Invalid_argument "Flat_mem.alloc")
    (fun () -> ignore (Fm.alloc ~words:(-3)))

let test_word_ops () =
  let b = Fm.alloc ~words:16 in
  Alcotest.(check int) "starts zeroed" 0 (Fm.get b 3);
  Fm.store b 3 42;
  Alcotest.(check int) "plain read sees store" 42 (Fm.get b 3);
  Alcotest.(check int) "atomic load agrees" 42 (Fm.load b 3);
  Alcotest.(check bool) "cas ok" true (Fm.cas b 3 42 43);
  Alcotest.(check bool) "cas stale" false (Fm.cas b 3 42 44);
  Alcotest.(check int) "faa returns old" 43 (Fm.faa b 3 7);
  Alcotest.(check int) "faa applied" 50 (Fm.get b 3);
  Alcotest.(check int) "neighbour untouched" 0 (Fm.get b 4);
  Fm.store b 5 (-9);
  Alcotest.(check int) "negative round-trips" (-9) (Fm.get b 5)

let test_fill () =
  let b = Fm.alloc ~words:32 in
  for i = 0 to 31 do
    Fm.store b i (100 + i)
  done;
  Fm.fill b 8 16 0;
  for i = 0 to 31 do
    let want = if i >= 8 && i < 24 then 0 else 100 + i in
    Alcotest.(check int) (Printf.sprintf "word %d" i) want (Fm.get b i)
  done

(* N domains FAA a shared word: no increment may be lost. *)
let test_hammer_faa_shared () =
  let b = Fm.alloc ~words:Fm.line_words in
  let n = 4 and per = 20_000 in
  let domains =
    Array.init n (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              ignore (Fm.faa b 0 1)
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "conserved" (n * per) (Fm.load b 0)

(* N domains CAS-increment a shared word (with relax backoff, as the
   library's retry loops do): still conserved. *)
let test_hammer_cas_shared () =
  let b = Fm.alloc ~words:Fm.line_words in
  let n = 4 and per = 5_000 in
  let domains =
    Array.init n (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              let rec go backoff =
                let v = Fm.load b 0 in
                if not (Fm.cas b 0 v (v + 1)) then begin
                  for _ = 1 to backoff do
                    Fm.cpu_relax ()
                  done;
                  go (min (2 * backoff) 64)
                end
              in
              go 1
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "conserved" (n * per) (Fm.load b 0)

(* Each domain hammers its own line-separated word; totals stay per-word
   exact (no bleed between disjoint words). *)
let test_hammer_disjoint_words () =
  let n = 4 and per = 20_000 in
  let b = Fm.alloc ~words:(n * Fm.line_words) in
  let domains =
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            let off = i * Fm.line_words in
            for _ = 1 to per do
              ignore (Fm.faa b off 1)
            done))
  in
  Array.iter Domain.join domains;
  for i = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "word %d exact" i)
      per
      (Fm.load b (i * Fm.line_words))
  done

(* The flat backend's block contract: node [j]'s field [f] is word
   [base + j*stride + f].  Cells are abstract, so the test pins the
   arithmetic by aliasing: with [stride = Rb.node_stride], node [j]'s word
   [f] must be node 0's word [j*stride + f] (padding words included —
   deliberately past the [f < fields] bound [node_cell] leaves unchecked
   on this backend), and every (node, field) pair is its own cell.  The
   geometry itself is pinned on [node_stride] and [node_align], which
   [node_block] carves by: from a line-aligned base, a data node of up to
   a line takes the least power-of-two stride and so never straddles a
   line; larger nodes take whole lines; single-field blocks (per-node
   side words) stay a line apart; single-node rows are padded to and
   aligned on line pairs.  Standalone cells never share. *)
let test_backend_layout () =
  let module R = (val Rb.make ()) in
  let lw = Fm.line_words in
  let nodes = 4 and fields = 3 in
  let b = R.node_block ~nodes ~fields in
  let stride = Rb.node_stride ~nodes ~fields in
  Alcotest.(check int) "3 fields take a 4-word stride" 4 stride;
  Alcotest.(check int) "2 fields take a 2-word stride" 2
    (Rb.node_stride ~nodes ~fields:2);
  for j = 0 to nodes - 1 do
    for f = 0 to stride - 1 do
      R.write (R.node_cell b j f) ((100 * j) + f + 1)
    done
  done;
  for w = 0 to (nodes * stride) - 1 do
    Alcotest.(check int)
      (Printf.sprintf "word %d = node %d field %d" w (w / stride)
         (w mod stride))
      ((100 * (w / stride)) + (w mod stride) + 1)
      (R.read (R.node_cell b 0 w))
  done;
  for fields = 1 to 24 do
    List.iter
      (fun nodes ->
        let what = Printf.sprintf "%d nodes of %d fields" nodes fields in
        let stride = Rb.node_stride ~nodes ~fields in
        Alcotest.(check int) (what ^ ": data block line aligned") lw
          (Rb.node_align ~nodes);
        Alcotest.(check bool) (what ^ ": stride holds the node") true
          (stride >= fields);
        if fields = 1 then
          Alcotest.(check int) (what ^ ": side words a line apart") lw stride
        else if fields <= lw then
          Alcotest.(check bool)
            (what ^ ": least power-of-two stride")
            true
            (stride land (stride - 1) = 0 && stride / 2 < fields)
        else
          Alcotest.(check bool)
            (what ^ ": least line-multiple stride")
            true
            (stride mod lw = 0 && stride < fields + lw);
        (* no node straddles a line: each touches exactly the lines its
           fields need *)
        for j = 0 to min nodes 64 - 1 do
          let first = j * stride and last = (j * stride) + fields - 1 in
          if (last / lw) - (first / lw) + 1 <> (fields + lw - 1) / lw then
            Alcotest.failf "%s: node %d straddles a line" what j
        done)
      [ 2; 3; 4096 ];
    let row = Rb.node_stride ~nodes:1 ~fields in
    Alcotest.(check int)
      (Printf.sprintf "%d-field row 128-byte aligned" fields)
      (2 * lw) (Rb.node_align ~nodes:1);
    Alcotest.(check bool)
      (Printf.sprintf "%d-field row is the least line pair" fields)
      true
      (row mod (2 * lw) = 0 && row >= fields && row < fields + (2 * lw))
  done;
  (* a data block of 3 one-line nodes leaves the next carve on an odd
     line, and a packed block of 3 two-word nodes ends mid-line; a row
     carved after them still gets its full, private span *)
  ignore (R.node_block ~nodes:3 ~fields:1);
  let packed = R.node_block ~nodes:3 ~fields:2 in
  let r1 = R.node_block ~nodes:1 ~fields:3 in
  let r2 = R.node_block ~nodes:1 ~fields:3 in
  let row = Rb.node_stride ~nodes:1 ~fields:3 in
  for w = 0 to row - 1 do
    R.write (R.node_cell r1 0 w) 1
  done;
  Alcotest.(check int) "next row untouched" 0 (R.read (R.node_cell r2 0 0));
  Alcotest.(check int) "packed block untouched" 0
    (R.read (R.node_cell packed 2 1));
  let c1 = R.cell 1 and c2 = R.cell 2 in
  ignore (R.faa c1 10);
  Alcotest.(check int) "standalone cells independent" 2 (R.read c2);
  Alcotest.(check int) "standalone faa" 11 (R.read c1)

(* [zero_node] clears exactly [fields] words of one node: its padding and
   both neighbours keep their contents. *)
let test_backend_zero_node () =
  let module R = (val Rb.make ()) in
  let b = R.node_block ~nodes:3 ~fields:3 in
  let stride = Rb.node_stride ~nodes:3 ~fields:3 in
  let span = 3 * stride in
  (* every word of the span, padding included, addressed via node 0 *)
  for w = 0 to span - 1 do
    R.write (R.node_cell b 0 w) (w + 1)
  done;
  R.zero_node b 1;
  for w = 0 to span - 1 do
    let zeroed = w >= stride && w < stride + 3 in
    Alcotest.(check int)
      (Printf.sprintf "word %d of the span" w)
      (if zeroed then 0 else w + 1)
      (R.read (R.node_cell b 0 w))
  done

(* [decommit_block] zeroes the whole block, padding words included, and
   nothing beyond it. *)
let test_backend_decommit_block () =
  let module R = (val Rb.make ()) in
  (* big enough to span whole pages, so the madvise path runs *)
  let nodes = 1500 and fields = 3 in
  let b = R.node_block ~nodes ~fields in
  let after = R.cell 42 in
  let span = nodes * Rb.node_stride ~nodes ~fields in
  (* every word of the span, padding included, addressed via node 0 *)
  for w = 0 to span - 1 do
    R.write (R.node_cell b 0 w) (w + 1)
  done;
  R.decommit_block b;
  for w = 0 to span - 1 do
    if R.read (R.node_cell b 0 w) <> 0 then
      Alcotest.failf "word %d nonzero after decommit_block" w
  done;
  Alcotest.(check int) "next carve untouched" 42 (R.read after);
  R.write (R.node_cell b 7 2) 5;
  Alcotest.(check int) "decommitted block writable" 5
    (R.read (R.node_cell b 7 2))

let test_backend_arena_exhaustion () =
  (* A deliberately tiny reservation must fail loudly, not corrupt.
     Carve until it does (the per-cell padding — currently two lines
     for the adjacent-line prefetcher — is the backend's business, so
     the test only bounds the carve count by the reservation), then
     check every previously carved cell still holds its value. *)
  let words = 4 * Fm.line_words in
  let r = Rb.make ~arena_words:words () in
  let module R = (val r) in
  let carved = ref [] in
  let raised =
    try
      for i = 1 to words do
        carved := (R.cell i, i) :: !carved
      done;
      false
    with Failure _ -> true
  in
  Alcotest.(check bool) "exhaustion raises" true raised;
  Alcotest.(check bool) "at least one carve fit" true (!carved <> []);
  List.iter
    (fun (c, v) ->
      Alcotest.(check int) "carved cell intact after exhaustion" v (R.read c))
    !carved

(* Arena recycling round-trip on the flat backend: nodes written, zeroed
   (the recycler's memset), and re-read must behave like fresh nodes. *)
let test_arena_recycling_roundtrip () =
  let r = Rb.make () in
  let module R = (val r) in
  let module A = Oa_mem.Arena.Make (R) in
  let module Ptr = Oa_mem.Ptr in
  let a = A.create ~capacity:8 ~n_fields:3 in
  match A.bump_range a 8 with
  | None -> Alcotest.fail "bump failed"
  | Some first ->
      let p i = Ptr.of_index (first + i) in
      for i = 0 to 7 do
        for f = 0 to 2 do
          A.write a (p i) f ((100 * i) + f)
        done
      done;
      for i = 0 to 7 do
        for f = 0 to 2 do
          Alcotest.(check int)
            (Printf.sprintf "node %d field %d" i f)
            ((100 * i) + f)
            (A.read a (p i) f)
        done
      done;
      (* Recycle even nodes; odd nodes must be untouched. *)
      for i = 0 to 7 do
        if i mod 2 = 0 then A.zero_node a (p i)
      done;
      for i = 0 to 7 do
        for f = 0 to 2 do
          let want = if i mod 2 = 0 then 0 else (100 * i) + f in
          Alcotest.(check int)
            (Printf.sprintf "post-recycle node %d field %d" i f)
            want
            (A.read a (p i) f)
        done
      done;
      (* Reuse a recycled node via CAS as a fresh owner would. *)
      Alcotest.(check bool) "cas on recycled node" true
        (A.cas a (p 0) 1 ~expected:0 77);
      Alcotest.(check int) "recycled node usable" 77 (A.read a (p 0) 1)

(* Decommit contract on the raw buffer: the range reads zero afterwards
   and the pages re-fault writable — no explicit recommit step exists. *)
let test_decommit_zeroes_and_refaults () =
  let words = 4 * 4096 / 8 in
  (* four pages of words *)
  let b = Fm.alloc ~words in
  for i = 0 to words - 1 do
    Fm.store b i (i + 1)
  done;
  (* the caller's obligation: fill before decommit (edge words of a
     non-page-aligned range survive the madvise) *)
  Fm.fill b 0 words 0;
  Fm.decommit b 0 words;
  for i = 0 to words - 1 do
    if Fm.get b i <> 0 then
      Alcotest.failf "word %d nonzero after decommit" i
  done;
  (* touching decommitted pages works: they re-fault as zero pages *)
  Fm.store b 17 99;
  Alcotest.(check int) "re-faulted page writable" 99 (Fm.get b 17);
  Alcotest.(check bool) "cas on re-faulted page" true (Fm.cas b 100 0 5)

(* Sub-page decommit: words outside the page-aligned interior keep their
   (caller-zeroed) contents; nothing outside the range is touched. *)
let test_decommit_partial_range () =
  let page_words = 4096 / 8 in
  let b = Fm.alloc ~words:(4 * page_words) in
  for i = 0 to (4 * page_words) - 1 do
    Fm.store b i 7
  done;
  let lo = page_words / 2 and len = 2 * page_words in
  Fm.fill b lo len 0;
  Fm.decommit b lo len;
  for i = 0 to lo - 1 do
    if Fm.get b i <> 7 then Alcotest.failf "word %d below range clobbered" i
  done;
  for i = lo to lo + len - 1 do
    if Fm.get b i <> 0 then Alcotest.failf "word %d in range nonzero" i
  done;
  for i = lo + len to (4 * page_words) - 1 do
    if Fm.get b i <> 7 then Alcotest.failf "word %d above range clobbered" i
  done

(* The elastic arena on the flat backend: allocation runs straight across
   a chunk boundary and every granted index is distinct and usable. *)
let test_flat_elastic_chunk_boundary () =
  let r = Rb.make () in
  let module R = (val r) in
  let module A = Oa_mem.Arena.Make (R) in
  let module Ptr = Oa_mem.Ptr in
  let a = A.create_elastic ~chunk_nodes:8 ~n_fields:2 () in
  let got = ref [] in
  let dst = Array.make 4 (-1) in
  let continue = ref true in
  while !continue do
    match A.take a ~dst ~max:4 with
    | 0 -> if A.grow a then () else continue := false
    | n ->
        for i = 0 to n - 1 do
          got := dst.(i) :: !got
        done;
        if List.length !got >= 20 then continue := false
  done;
  let got = List.sort compare !got in
  Alcotest.(check int) "twenty slots granted" 20 (List.length got);
  Alcotest.(check int)
    "all distinct" 20
    (List.length (List.sort_uniq compare got));
  Alcotest.(check bool) "crossed a chunk boundary" true
    (List.exists (fun i -> i >= 8) got);
  List.iter
    (fun i ->
      A.write a (Ptr.of_index i) 1 (i * 3);
      Alcotest.(check int) "slot usable" (i * 3) (A.read a (Ptr.of_index i) 1))
    got

(* Shrink-then-regrow through the arena on flat storage: after a chunk
   decommits, its memory really reads zero, and re-opening it hands out
   writable slots again. *)
let test_flat_elastic_shrink_regrow () =
  let r = Rb.make () in
  let module R = (val r) in
  let module A = Oa_mem.Arena.Make (R) in
  let module Ptr = Oa_mem.Ptr in
  let a = A.create_elastic ~chunk_nodes:8 ~n_fields:2 () in
  let dst = Array.make 8 (-1) in
  Alcotest.(check int) "drained" 8 (A.take a ~dst ~max:8);
  Array.iter (fun i -> A.write a (Ptr.of_index i) 0 0xBEEF) dst;
  let shrunk = Array.fold_left (fun acc i -> acc || A.release a i) false dst in
  Alcotest.(check bool) "chunk decommitted" true shrunk;
  Array.iter
    (fun i ->
      Alcotest.(check int) "reads zero after shrink" 0
        (A.read a (Ptr.of_index i) 0))
    dst;
  Alcotest.(check int) "regrown slots flow" 8 (A.take a ~dst ~max:8);
  Array.iter
    (fun i ->
      A.write a (Ptr.of_index i) 0 42;
      Alcotest.(check int) "regrown slot usable" 42
        (A.read a (Ptr.of_index i) 0))
    dst

let () =
  Alcotest.run "flat_mem"
    [
      ( "buffer",
        [
          Alcotest.test_case "alignment" `Quick test_alignment_and_rounding;
          Alcotest.test_case "alloc validation" `Quick test_alloc_rejects_garbage;
          Alcotest.test_case "word ops" `Quick test_word_ops;
          Alcotest.test_case "fill" `Quick test_fill;
        ] );
      ( "hammer",
        [
          Alcotest.test_case "shared faa" `Quick test_hammer_faa_shared;
          Alcotest.test_case "shared cas" `Quick test_hammer_cas_shared;
          Alcotest.test_case "disjoint words" `Quick test_hammer_disjoint_words;
        ] );
      ( "backend",
        [
          Alcotest.test_case "layout" `Quick test_backend_layout;
          Alcotest.test_case "zero node" `Quick test_backend_zero_node;
          Alcotest.test_case "decommit block" `Quick
            test_backend_decommit_block;
          Alcotest.test_case "exhaustion" `Quick test_backend_arena_exhaustion;
          Alcotest.test_case "arena recycling" `Quick
            test_arena_recycling_roundtrip;
        ] );
      ( "elastic",
        [
          Alcotest.test_case "decommit zeroes and refaults" `Quick
            test_decommit_zeroes_and_refaults;
          Alcotest.test_case "decommit partial range" `Quick
            test_decommit_partial_range;
          Alcotest.test_case "chunk boundary allocation" `Quick
            test_flat_elastic_chunk_boundary;
          Alcotest.test_case "shrink then regrow" `Quick
            test_flat_elastic_shrink_regrow;
        ] );
    ]
