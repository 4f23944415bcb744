(** Node arena.

    All nodes of a data structure live in an arena of [n_fields]-word
    nodes; {!Ptr.t} values index into it.  The arena is never unmapped,
    so reading a field of a node that has been retired and recycled never
    faults — it returns whatever the new owner wrote, i.e. a stale value.
    This is exactly the environment the optimistic access scheme is
    designed for (the paper's Assumption 3.1).

    Two storage representations share the interface (see docs/memory.md):
    the historical fixed pre-allocated arena (the default) and the
    elastic chunked arena of {!Oa_alloc}, which grows on demand and
    returns fully-free chunks to the OS while keeping their mapping —
    and therefore Assumption 3.1 — intact. *)

module Make (R : Oa_runtime.Runtime_intf.S) : sig
  type t

  val create : capacity:int -> n_fields:int -> t
  (** [create ~capacity ~n_fields] allocates fixed storage for exactly
      [capacity] nodes of [n_fields] words, carved up front as one
      runtime node block — addressed by arithmetic, so it costs a
      constant amount of OCaml heap whatever [capacity] is; all fields
      of a node share a cache line and allocation past [capacity] fails —
      the historical behaviour.
      @raise Invalid_argument when either argument is non-positive. *)

  val create_elastic : ?chunk_nodes:int -> n_fields:int -> unit -> t
  (** [create_elastic ~n_fields ()] builds an elastic arena: storage is a
      table of [chunk_nodes]-node chunks (default: a power of two sized
      near 2 MiB for the size class; any given value is rounded up to a
      power of two) mapped on demand by {!grow} and returned to the OS by
      {!release} once fully free.  There is no capacity cap beyond the
      backend's address-space reservation.
      @raise Invalid_argument when [n_fields] or a given [chunk_nodes] is
      non-positive. *)

  val capacity : t -> int
  (** Fixed: the creation capacity.  Elastic: nodes currently mapped —
      grows over time and counts decommitted chunks (their index range
      stays valid). *)

  val n_fields : t -> int

  val is_elastic : t -> bool

  val field : t -> Ptr.t -> int -> R.cell
  (** [field t p f] is the cell of field [f] of the node [p] points to.
      [p] must be unmarked and non-null.  The lookup is unchecked — it
      sits on the per-shared-access hot path — and relies on [f] being a
      static field id below [n_fields] and [p] an index the arena
      granted; stale optimistically-read pointers satisfy the latter by
      the backends' no-torn-read store contract.  Validated against
      {!field_checked} by the differential test [test_unsafe_access]. *)

  val field_checked : t -> Ptr.t -> int -> R.cell
  (** Bounds-checked {!field} — the reference semantics for tests; never
      used on hot paths.  @raise Invalid_argument out of range. *)

  val read : t -> Ptr.t -> int -> int
  val write : t -> Ptr.t -> int -> int -> unit
  val cas : t -> Ptr.t -> int -> expected:int -> int -> bool

  val bump_range : t -> int -> int option
  (** [bump_range t n] grabs [n] fresh consecutive node indices, returning
      the first.  Distinct callers always receive disjoint ranges.  Fixed:
      [None] when fewer than [n] remain.  Elastic: maps further chunks as
      needed, so [None] only when the backend's address-space reservation
      is exhausted. *)

  val bump_used : t -> int
  (** Number of nodes handed out by the bump region so far. *)

  val take : t -> dst:int array -> max:int -> int
  (** [take t ~dst ~max] fills [dst.(0 .. r-1)] with up to [max]
      allocatable node indices and returns [r].  Fixed: fresh bump nodes
      only — [max] of them or, when the region cannot cover that, a single
      node ([r <= 1]), preserving the historical refill policy.  Elastic:
      recycled free-list slots first, then fresh bump space; [r = 0] means
      every mapped chunk is exhausted and the caller should {!grow} (after
      giving reclamation a chance). *)

  val grow : t -> bool
  (** [grow t] maps one more chunk of storage.  [false] on a fixed arena,
      and on an elastic one whose backend reservation is exhausted. *)

  val release : t -> int -> bool
  (** [release t idx] returns reclaimed node [idx] to the arena.  Fixed:
      a no-op returning [false] (recycled slots live in the schemes'
      pools; the arena has no free lists).  Elastic: the slot joins its
      home chunk's free list, and the result is [true] when this release
      made the chunk fully free and its pages were handed back to the OS
      ([madvise(MADV_DONTNEED)] under the flat real backend — the mapping
      itself survives, so stale optimistic readers never fault). *)

  val gauges : t -> (string * int) list
  (** Memory gauges: [mem_chunks_live], [mem_chunks_mapped] and the
      committed-byte estimate [mem_committed_bytes]. *)

  val zero_node : t -> Ptr.t -> unit
  (** Zero all fields of a node, as the paper's allocator does
      ([memset(obj, 0)] in Algorithm 5): one bulk fill over the node's
      contiguous words on the flat real backend, per-cell writes on the
      other backends.  Racing optimistic readers observe each field either
      old or zero, never torn. *)
end
