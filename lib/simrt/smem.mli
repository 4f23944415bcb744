(** Simulated shared memory with a cache-coherence cost model.

    Cells live on {e cache lines}; each logical thread has a direct-mapped
    cache of {!Cost_model.t.cache_slots} lines.  A read of a line whose
    current version is in the reader's cache is a hit, anything else is a
    miss; writes bump the line version, invalidating all other caches, and
    pay an ownership (RFO) cost when the line was last written by another
    thread.  All accesses charge the current thread via {!Sched} and yield
    at synchronisation points, so every execution is a sequentially
    consistent interleaving.

    When called outside of a {!Sched.run} (e.g. while prefilling a structure
    or validating invariants after a run) accesses are performed raw and
    cost nothing. *)

type t

type cell
(** An int-valued shared memory cell. *)

type 'a rcell
(** A shared cell holding a boxed OCaml value; compare-and-swap uses
    physical equality, mirroring [Atomic.t] on heap values. *)

val create : Sched.t -> threads:int -> t
(** [create sched ~threads] makes a memory connected to [sched] with
    per-thread caches for thread ids [0 .. threads-1]. *)

val cell : t -> int -> cell
(** [cell t v] allocates a cell initialised to [v] on a fresh line. *)

val node_matrix : t -> nodes:int -> fields:int -> cell array array
(** [node_matrix t ~nodes ~fields] allocates a [fields]x[nodes] matrix of
    cells where all fields of node [j] share one cache line, as the fields
    of a heap node would.  Result is indexed [field].(node). *)

val read : t -> cell -> int

val read_own : t -> cell -> int
(** Cheap read of a cell the reading thread almost always wrote last (its
    warning word or hazard slots): one cycle when cached, a normal miss
    otherwise. *)

val write : t -> cell -> int -> unit

val cas : t -> cell -> int -> int -> bool
(** [cas t c expected new_v] atomically replaces [expected] by [new_v].
    Always pays the ownership cost, succeeding or not, and is always a
    scheduling point. *)

val faa : t -> cell -> int -> int
(** [faa t c d] atomically adds [d] and returns the previous value. *)

val fence : t -> unit
(** Full memory fence: pays {!Cost_model.t.fence} and yields. *)

val rcell : t -> 'a -> 'a rcell
val rread : t -> 'a rcell -> 'a
val rwrite : t -> 'a rcell -> 'a -> unit

val rcas : t -> 'a rcell -> 'a -> 'a -> bool
(** Physical-equality compare-and-swap on a boxed cell. *)
