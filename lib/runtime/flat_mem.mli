(** Flat, cache-aligned shared-word arena for the real backend.

    One contiguous 64-byte-aligned buffer of machine words with C-level
    atomic operations (seq_cst) on individual words.  This is the storage
    substrate of {!Real_backend}: node fields become adjacent words of one
    buffer (node-major), so all fields of a node share a cache line
    ({!Real_backend.node_stride} sets how many nodes share one).

    The buffer is an [int]-kind [Bigarray.Array1]: elements are stored
    untagged but surface as immediate OCaml ints, so {!get} compiles to a
    single inlined load with no allocation.  {!get} is deliberately a plain
    (non-atomic) load — it is the backend's optimistic read, the access the
    paper's scheme leaves barrier-free; all mutating operations are seq_cst
    atomics implemented in [flat_stubs.c]. *)

type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val line_words : int
(** Words per cache line (8 on 64-bit). *)

val alloc : words:int -> buffer
(** [alloc ~words] returns a zeroed buffer of at least [words] words,
    rounded up to whole cache lines, with its first word 64-byte aligned.
    The backing store is an anonymous lazily-committed mapping: pages cost
    resident memory only once touched, so reserving a generous arena up
    front is near-free.  It is unmapped when the buffer is collected; do
    not retain offsets into a buffer beyond the buffer itself.
    @raise Invalid_argument when [words <= 0].
    @raise Failure with a one-line reason when the OS refuses the
    reservation. *)

val length : buffer -> int
(** Capacity in words (after rounding). *)

val addr : buffer -> int
(** Base address of the buffer's storage, for alignment assertions. *)

val get : buffer -> int -> int
(** [get b i] — plain unsynchronised load of word [i]; the optimistic
    read.  No bounds check: [i] must be within [length b]. *)

val set : buffer -> int -> int -> unit
(** [set b i v] — plain unsynchronised store, a single inlined
    instruction.  Aligned word stores are single-copy atomic at the ISA
    level (racing readers see old or new, never torn); ordering against
    other locations requires a subsequent {!cas} or {!fence}, exactly the
    paper's plain-write / explicit-fence memory model.  No bounds check. *)

val get_checked : buffer -> int -> int
(** Bounds-checked {!get}; the reference semantics for the differential
    test of the unsafe accessors.  @raise Invalid_argument out of range. *)

val set_checked : buffer -> int -> int -> unit
(** Bounds-checked {!set}.  @raise Invalid_argument out of range. *)

external load : buffer -> int -> int = "oa_flat_load" [@@noalloc]
(** Seq_cst atomic load. *)

external store : buffer -> int -> int -> unit = "oa_flat_store" [@@noalloc]
(** Seq_cst atomic store. *)

external cas : buffer -> int -> int -> int -> bool = "oa_flat_cas"
  [@@noalloc]
(** [cas b i expected v] — seq_cst compare-and-swap of word [i]. *)

external faa : buffer -> int -> int -> int = "oa_flat_faa" [@@noalloc]
(** [faa b i d] — seq_cst fetch-and-add, returns the previous value. *)

external fence : unit -> unit = "oa_flat_fence" [@@noalloc]
(** Full memory fence ([atomic_thread_fence(seq_cst)]); involves no shared
    location, so fencing domains do not contend with each other. *)

external cpu_relax : unit -> unit = "oa_flat_cpu_relax" [@@noalloc]
(** Spin-wait hint ([pause]/[yield]) for CAS retry backoff. *)

external fill : buffer -> int -> int -> int -> unit = "oa_flat_fill"
  [@@noalloc]
(** [fill b off len v] stores [v] into words [off .. off+len-1] with
    word-granular stores: a racing optimistic reader observes each word
    either old or new, never torn. *)

external decommit : buffer -> int -> int -> unit = "oa_flat_decommit"
  [@@noalloc]
(** [decommit b off len] returns the physical pages fully contained in
    words [off .. off+len-1] to the OS ([madvise(MADV_DONTNEED)]) while
    keeping the mapping intact: a later access re-faults a zero page, and
    a stale optimistic reader racing with the decommit reads an old word
    or a zero — never a fault.  Edge words sharing a page with memory
    outside the range are untouched; callers wanting the whole span to
    read 0 must {!fill} it first. *)
