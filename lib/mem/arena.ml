(** Node arena.

    All nodes of a data structure live in an arena of [n_fields]-word
    nodes; {!Ptr.t} values index into it.  The arena is never unmapped,
    so reading a field of a node that has been retired and recycled never
    faults — it returns whatever the new owner wrote, i.e. a stale value.
    This is exactly the environment the optimistic access scheme is
    designed for (the paper's Assumption 3.1).

    Two storage representations share the interface:

    - [`Fixed] (the default): the original pre-allocated arena — one
      runtime node block of [capacity] nodes plus a bump cell.  A field
      is addressed by arithmetic on the block ({!R.node_cell}), so the
      arena holds no per-node storage on the OCaml heap.  Recycled
      slots live only in the schemes' pools; the arena itself never takes
      memory back, and allocation past [capacity] fails.
    - [`Elastic]: storage is an {!Oa_alloc} chunk table.  {!take} prefers
      recycled slots, {!grow} maps further chunks on demand (no fixed
      capacity), and {!release} returns slots to their home chunk —
      decommitting a chunk's pages back to the OS once it is fully free.
      Decommit keeps the mapping intact, so Assumption 3.1 survives
      shrink: a stale read of a decommitted node yields zeros, never a
      fault.

    Allocation policy is owned by the SMR schemes; the arena provides
    storage, a bump region for never-yet-allocated nodes and — when
    elastic — the recycle/grow/shrink machinery beneath them. *)

module Make (R : Oa_runtime.Runtime_intf.S) = struct
  module Al = Oa_alloc.Make (R)

  type repr =
    | Fixed of { capacity : int; blk : R.block; bump : R.cell }
    | Elastic of Al.t

  type t = { n_fields : int; repr : repr }

  let create ~capacity ~n_fields =
    if capacity <= 0 || n_fields <= 0 then invalid_arg "Arena.create";
    (* The block is carved before the bump cell: on the sim backend the
       carve order fixes every modelled line id. *)
    let blk = R.node_block ~nodes:capacity ~fields:n_fields in
    let bump = R.cell 0 in
    { n_fields; repr = Fixed { capacity; blk; bump } }

  let create_elastic ?chunk_nodes ~n_fields () =
    if n_fields <= 0 then invalid_arg "Arena.create";
    { n_fields; repr = Elastic (Al.create ?chunk_nodes ~n_fields ()) }

  let capacity t =
    match t.repr with
    | Fixed f -> f.capacity
    | Elastic a -> Al.capacity a

  let n_fields t = t.n_fields

  let is_elastic t =
    match t.repr with Fixed _ -> false | Elastic _ -> true

  (** [field t p f] is the cell of field [f] of the node [p] points to.
      [p] must be unmarked and non-null.

      This is the hottest lookup in the system — once per shared-memory
      access of every structure operation — so it must not pay bounds
      checks.  The index is in range by construction: [f] is a static
      field id below [n_fields], and [Ptr.index p] is an index the arena
      itself granted.  Stale pointers read optimistically are covered by
      the same argument — word-granular stores mean a racing read yields
      a value that {e was} written, i.e. a granted index, never a torn
      fabrication (the no-torn-read contract of [Flat_mem.fill] and the
      backends' plain stores; see the differential test
      [test_unsafe_access]). *)
  let field t p f =
    match t.repr with
    | Fixed fx -> R.node_cell fx.blk (Ptr.index p) f
    | Elastic a -> Al.field a (Ptr.index p) f

  (** Bounds-checked [field]: the reference the differential test holds
      the unsafe lookup against.  Raises on any out-of-range access. *)
  let field_checked t p f =
    if f < 0 || f >= t.n_fields then invalid_arg "Arena.field_checked";
    match t.repr with
    | Fixed fx ->
        let j = Ptr.index p in
        if j < 0 || j >= fx.capacity then invalid_arg "Arena.field_checked";
        R.node_cell fx.blk j f
    | Elastic a -> Al.field_checked a (Ptr.index p) f

  let read t p f = R.read (field t p f)
  let write t p f v = R.write (field t p f) v
  let cas t p f ~expected v = R.cas (field t p f) expected v

  (** [bump_range t n] grabs [n] fresh consecutive node indices,
      returning the first.  Fixed: from the bump region, [None] when
      fewer than [n] remain.  Elastic: from the open chunk (mapping more
      chunks as needed), [None] only when the backend's address-space
      reservation is exhausted. *)
  let bump_range t n =
    match t.repr with
    | Fixed f ->
        let first = R.faa f.bump n in
        if first + n <= f.capacity then Some first else None
    | Elastic a -> Al.bump_region a n

  let bump_used t =
    match t.repr with
    | Fixed f -> min (R.read f.bump) f.capacity
    | Elastic a -> Al.bump_used a

  (** [take t ~dst ~max] fills [dst.(0 .. r-1)] with up to [max]
      allocatable node indices and returns [r].  Fixed: bump region only
      (all-or-single, preserving the historical refill policy).  Elastic:
      recycled slots first, then fresh bump space; [r = 0] means every
      mapped chunk is exhausted and the caller should {!grow}. *)
  let take t ~dst ~max =
    match t.repr with
    | Fixed _ -> (
        match bump_range t max with
        | Some first ->
            for i = 0 to max - 1 do
              dst.(i) <- first + i
            done;
            max
        | None -> (
            match bump_range t 1 with
            | Some first ->
                dst.(0) <- first;
                1
            | None -> 0))
    | Elastic a -> Al.take a ~dst ~max

  (** [grow t] maps one more chunk.  [false] on a fixed arena, and on an
      elastic one whose backend reservation is exhausted. *)
  let grow t =
    match t.repr with Fixed _ -> false | Elastic a -> Al.grow a

  (** [release t idx] returns a reclaimed node to the arena.  On a fixed
      arena this is a no-op ([false]): recycled slots must stay in the
      schemes' pools, the arena has no free lists.  On an elastic arena
      the slot joins its home chunk's free list; the result is [true]
      when this release emptied the chunk and its pages went back to the
      OS. *)
  let release t idx =
    match t.repr with Fixed _ -> false | Elastic a -> Al.release a idx

  (** Memory gauges, uniform across representations: [mem_chunks_live],
      [mem_chunks_mapped] and the committed-byte estimate
      [mem_committed_bytes]. *)
  let gauges t =
    match t.repr with
    | Fixed f ->
        let stride =
          Oa_runtime.Real_backend.node_stride ~nodes:f.capacity
            ~fields:t.n_fields
        in
        [
          ("mem_chunks_live", 1);
          ("mem_chunks_mapped", 1);
          ( "mem_committed_bytes",
            bump_used t * stride * Oa_alloc.Size_class.word_bytes );
        ]
    | Elastic a -> Al.gauges a

  (** Zero all fields of a node, as the paper's allocator does
      ([memset(obj, 0)] in Algorithm 5): [n_fields] plain word stores on
      the flat real backend, per-cell writes on the sim backend. *)
  let zero_node t p =
    match t.repr with
    | Fixed f -> R.zero_node f.blk (Ptr.index p)
    | Elastic a -> Al.zero_node a (Ptr.index p)
end
