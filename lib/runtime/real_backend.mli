(** Real backend: logical threads are OCaml 5 domains.  This is the
    backend applications use; wall-clock measurements from it are only
    meaningful with enough hardware cores. *)

val make :
  ?max_threads:int -> ?arena_words:int -> unit -> (module Runtime_intf.S)
(** [make ()] builds the default ["real"] runtime: domains over one flat,
    contiguous, 64-byte-aligned {!Flat_mem} word arena.  Cells are plain
    [int] offsets into the arena — no per-cell heap object — and a node
    block's fields are node-major, no node straddling a cache line (the
    {!Runtime_intf.S} layout contract), addressed by arithmetic
    ({!node_stride}).  Standalone cells get two full lines each, reads are
    plain inlined loads, and all mutating operations are seq_cst C
    atomics.  [max_threads] (default [128]) bounds [par_run]'s thread
    count; note OCaml limits the number of simultaneously live domains.
    [arena_words] (default {!default_arena_words}, 1 GiB of address
    space) sizes the arena reservation; pages are committed lazily, so a
    reservation costs resident memory only as cells are carved.  Carving
    past the reservation raises [Failure].
    @raise Failure when the OS refuses the reservation. *)

val default_arena_words : int
(** [2^27]: the reservation {!make} takes when [arena_words] is omitted. *)

val node_align : nodes:int -> int
(** Word alignment of the first node of [node_block ~nodes ~fields]: one
    cache line ({!Flat_mem.line_words}), or a 128-byte line pair for a
    single-node block (a per-thread row). *)

val node_stride : nodes:int -> fields:int -> int
(** Words from one node to the next in [node_block ~nodes ~fields] — the
    layout's one stride rule:
    - a data node of [2 .. line_words] fields in a block of [nodes > 1]
      takes the least power of two [>= fields] (a 2-field node is 2 words,
      four to a line), so no node straddles a line;
    - otherwise [fields] is rounded up to a multiple of
      [node_align ~nodes]: larger nodes take whole lines, a single-field
      block (per-node side words written by every reader) one line per
      node, and a single-node row whole 128-byte line pairs.
    Node [j]'s field [f] is word [base + j * node_stride ~nodes ~fields + f]
    of the arena.  The elastic allocator's chunk sizing and the arenas'
    committed-bytes gauges use this function too. *)
