(** Real backend: logical threads are OCaml 5 domains.  This is the
    backend applications use; wall-clock measurements from it are only
    meaningful with enough hardware cores. *)

val make :
  ?max_threads:int -> ?arena_words:int -> unit -> (module Runtime_intf.S)
(** [make ()] builds the default ["real"] runtime: domains over one flat,
    contiguous, 64-byte-aligned {!Flat_mem} word arena.  Cells are plain
    [int] offsets into the arena — no per-cell heap object.  Node fields
    are node-major with cache-line-padded stride (the {!Runtime_intf.S}
    layout contract), standalone cells get a full line each, reads are
    plain inlined loads, and all mutating operations are seq_cst C
    atomics.  [max_threads] (default [128]) bounds [par_run]'s thread
    count; note OCaml limits the number of simultaneously live domains.
    [arena_words] (default [2^27], 1 GiB of address space) sizes the
    arena reservation; pages are committed lazily, so the default costs
    resident memory only as cells are carved.  Carving past the
    reservation raises [Failure]. *)
