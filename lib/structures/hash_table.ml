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

  (* Batched execution through the scheme's amortised path (see
     Smr_intf.run_batch), in submission order; each thunk must be a
     complete operation on this context. *)
  let run_batch (ctx : ctx) n f = L.run_batch ctx n f

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
