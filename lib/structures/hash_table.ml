(** Lock-free hash table (Michael, SPAA 2002): an array of buckets, each a
    Harris-Michael linked list.

    As in the paper's evaluation: a fixed bucket count, no resizing.  The
    count is the next power of two (at least 16) of [expected_size / 0.75],
    so the load factor at the expected size lies between 0.375 and 0.75;
    with 10 000 keys the average chain length is below one node —
    operations are extremely short and the per-operation costs of the SMR
    schemes (EBR's fence per operation, HP's fence per read) dominate,
    which is what Figure 1's hash panel shows.

    All buckets share one node arena and one SMR instance.  A bucket head
    is not a node but a single word holding the chain's first pointer;
    the heads are packed eight to a cache line in one runtime node block
    beside the arena ({!Linked_list.Make.head_cell}), and bucket [b]'s
    head is word [b] of that block (on the flat backend, word
    [base + b]). *)

module Ptr = Oa_mem.Ptr

(** Power-of-two bucket count >= expected / load_factor, at least 16. *)
let bucket_count ~expected_size =
  let target = int_of_float (ceil (float_of_int expected_size /. 0.75)) in
  let rec pow2 n = if n >= target then n else pow2 (2 * n) in
  pow2 16

(** Words of backend memory the bucket heads of a
    [create ~expected_size] table take outside its node arena: one per
    bucket. *)
let head_words ~expected_size = bucket_count ~expected_size

module Make (S : Oa_core.Smr_intf.S) = struct
  module R = S.R
  module A = Oa_mem.Arena.Make (S.R)
  module L = Linked_list.Make (S)

  type t = { list : L.t; mask : int }
  type ctx = L.ctx

  let create ?obs ?(elastic = false) ?chunk_nodes ~capacity ~expected_size cfg =
    let n_buckets = bucket_count ~expected_size in
    let arena =
      if elastic then A.create_elastic ?chunk_nodes ~n_fields:L.n_fields ()
      else A.create ~capacity ~n_fields:L.n_fields
    in
    let smr = S.create ?obs arena cfg in
    (* a 64-byte line holds eight heads, and [bucket_count] is a power of
       two >= 16, so the lines divide the buckets exactly *)
    let heads = R.node_block ~nodes:(n_buckets / 8) ~fields:8 in
    for b = 0 to n_buckets - 1 do
      R.write (L.head_cell heads b) Ptr.null
    done;
    let list = L.on_arena arena smr ~heads in
    { list; mask = n_buckets - 1 }

  let register t = L.register t.list
  let quiesce (ctx : ctx) = L.quiesce ctx
  let smr t = L.smr t.list
  let arena t = L.arena t.list
  let n_buckets t = t.mask + 1

  (** The arena's memory gauges, with [mem_committed_bytes] also counting
      the bucket heads: they live outside the arena but are resident for
      the table's lifetime. *)
  let gauges t =
    let heads = n_buckets t * Oa_alloc.Size_class.word_bytes in
    List.map
      (fun (name, v) ->
        if name = "mem_committed_bytes" then (name, v + heads) else (name, v))
      (A.gauges (arena t))

  (* Fibonacci hashing: spreads consecutive keys across buckets. *)
  let bucket_index t key = (key * 0x2545F4914F6CDD1D) lsr 13 land t.mask
  let bucket_head t b = L.bucket_head t.list b
  let bucket t key = bucket_head t (bucket_index t key)

  let contains t ctx key = L.contains_in ctx ~bucket:(bucket_index t key) key
  let insert t ctx key = L.insert_in ctx ~bucket:(bucket_index t key) key
  let delete t ctx key = L.delete_in ctx ~bucket:(bucket_index t key) key

  (* --- Batched execution --- *)

  (* Run thunks [f 0 .. f (n-1)] — one complete operation each, with
     [keys.(i)] the key operation [i] touches — as one batch through the
     scheme's amortised path, in bucket order: consecutive thunks then tend
     to land on the same chain, so a hazard validated by one operation is
     still published when the next one's first read hits the same node
     (the HP carry of [Smr_intf.run_batch]).  The reorder is a {e stable}
     sort on the bucket index, so operations on the same key — a fortiori
     the same bucket — keep their submission order, which is what makes a
     batch observably equivalent to executing its operations one at a time
     for any single submitter. *)
  (* [?n] restricts the batch to the first [n] keys (the [Service] worker
     reuses one max-sized key buffer across rendezvous); [?scratch] lends
     the ordering buffer, killing the per-batch [order] allocation when the
     caller can preallocate it (it must be at least [n] long, or it is
     ignored and a fresh buffer allocated). *)
  (* Fill [order.(0 .. n-1)] with the stable bucket-sorted dispatch
     order of [keys.(0 .. n-1)] and return the submission-index mask:
     [order.(j) land mask] is the submission index to run [j]-th.  Packs
     [bucket lsl shift lor submission-index] into one int so the stable
     bucket order falls out of a single monomorphic int sort — the
     comparator runs O(n log n) times and must not hash or box. *)
  let sort_order t ~n ~(keys : int array) (order : int array) =
    let shift =
      let rec bits b = if n lsr b = 0 then b else bits (b + 1) in
      bits 0
    in
    for i = 0 to n - 1 do
      order.(i) <- (bucket_index t keys.(i) lsl shift) lor i
    done;
    (* Monomorphic in-place sort: [Array.sort Int.compare] pays a closure
       call per comparison, which at large batches costs more than the
       traversal reuse the ordering buys.  Insertion sort for the typical
       small batch (a server dequeue, a pipelined client burst), quicksort
       with median-of-three pivots above that — every comparison is an
       inlined integer [<]. *)
    (* All sort indices stay inside [0, n): [unsafe_get]/[unsafe_set]
       drop the bounds checks from the O(n log n) inner loops. *)
    let get i = Array.unsafe_get order i in
    let set i v = Array.unsafe_set order i v in
    let insertion lo hi =
      for i = lo + 1 to hi do
        let v = get i in
        let j = ref (i - 1) in
        while !j >= lo && get !j > v do
          set (!j + 1) (get !j);
          decr j
        done;
        set (!j + 1) v
      done
    in
    let swap i j =
      let v = get i in
      set i (get j);
      set j v
    in
    let rec qsort lo hi =
      if hi - lo < 24 then insertion lo hi
      else begin
        let mid = lo + ((hi - lo) / 2) in
        if get mid < get lo then swap mid lo;
        if get hi < get lo then swap hi lo;
        if get hi < get mid then swap hi mid;
        let pivot = get mid in
        let i = ref lo and j = ref hi in
        while !i <= !j do
          while get !i < pivot do
            incr i
          done;
          while get !j > pivot do
            decr j
          done;
          if !i <= !j then begin
            swap !i !j;
            incr i;
            decr j
          end
        done;
        qsort lo !j;
        qsort !i hi
      end
    in
    qsort 0 (n - 1);
    (1 lsl shift) - 1

  (* The bucket sort only pays back through the scheme's hazard carry,
     and the carry only fires when two operations of the batch land on
     the same chain.  Under Fibonacci hashing that is a birthday bound:
     the expected number of colliding pairs is n(n-1)/2b, so below
     [n(n-1) >= buckets] a batch almost surely has zero shared chains
     and the sort is pure overhead — measured at ~10% of batch-16
     throughput on the default table. *)
  let sort_worthwhile t n = n * (n - 1) >= t.mask + 1

  let run_batch_keyed t (ctx : ctx) ?n ?scratch ~(keys : int array) f =
    let n = match n with Some n -> n | None -> Array.length keys in
    if not (S.batch_order_sensitive && sort_worthwhile t n) then
      (* either the scheme's amortisation doesn't care about dispatch
         order (one warning absorb, one epoch announcement), or the
         batch is too small for shared chains to be likely — submission
         order stands and the sort is skipped: its cost exceeds
         anything traversal locality could pay back *)
      L.run_batch ctx n f
    else begin
      let order =
        match scratch with
        | Some a when Array.length a >= n -> a
        | _ -> Array.make (max 1 n) 0
      in
      let mask = sort_order t ~n ~keys order in
      L.run_batch ctx n (fun j -> f (Array.unsafe_get order j land mask))
    end

  (* --- Quiescent helpers --- *)

  let to_list t =
    let acc = ref [] in
    for b = 0 to n_buckets t - 1 do
      acc :=
        List.rev_append (L.to_list_from t.list ~head:(bucket_head t b)) !acc
    done;
    List.sort compare !acc

  let validate t ~limit =
    let rec go b =
      if b >= n_buckets t then Ok ()
      else
        match L.validate_from t.list ~head:(bucket_head t b) ~limit with
        | Ok () -> go (b + 1)
        | Error e -> Error (Printf.sprintf "bucket %d: %s" b e)
    in
    go 0
end
