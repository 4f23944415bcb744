(** The runtime abstraction all higher layers are written against.

    A [RUNTIME] bundles shared-memory primitives with thread management.
    Two backends implement it: {!Sim_backend} (discrete-event simulated
    multicore with a cycle-cost model — see DESIGN.md for why a simulator
    substitutes for the paper's 64-core testbeds) and {!Real_backend}
    (OCaml 5 [Domain]s over one flat word arena).  Backends are
    instantiated per experiment as first-class modules and carry their
    own state. *)

module type S = sig
  val name : string
  (** Backend identifier: ["sim"] or ["real"]. *)

  type cell
  (** An int-valued shared memory location supporting atomic operations.
      Representation is backend-owned: a line/value pair charged by the
      cache cost model on the sim backend, a word offset into one
      contiguous 64-byte-aligned word arena on the real backend. *)

  type 'a rcell
  (** A shared location holding a boxed OCaml value; [rcas] compares with
      physical equality, like [Atomic.t] on heap values. *)

  val cell : int -> cell
  (** Allocate a cell on its own cache line: a fresh modelled line on the
      sim backend, two full 64-byte lines per standalone cell on the real
      backend (so the adjacent-line prefetcher cannot couple two hot
      cells). *)

  type block
  (** Storage for a run of same-shaped heap nodes, addressed by
      arithmetic: node [j]'s field [f] is {!node_cell}[ b j f].  No
      per-node handle exists anywhere, so a block costs O(1) OCaml heap
      whatever its node count. *)

  val node_block : nodes:int -> fields:int -> block
  (** [node_block ~nodes ~fields] allocates storage for [nodes] heap nodes
      of [fields] words each, laid out {e node-major}: a node's fields
      never straddle a cache line; whether sub-line neighbours share a
      line is the backend's choice.  The sim backend puts each node's
      fields on one costed line of its own; the real backend delivers the
      contract physically — one contiguous span whose stride packs nodes
      of up to a line at power-of-two strides (four 2-field nodes to a
      line), while a per-thread hazard/warning row allocated as
      [node_block ~nodes:1] occupies its own padded region.  Every cell
      starts at 0. *)

  val node_cell : block -> int -> int -> cell
  (** [node_cell b j f] is field [f] of node [j] (real backend:
      [base + j*stride + f]).  Unchecked: [0 <= j < nodes] and
      [0 <= f < fields] are the caller's obligation. *)

  val read : cell -> int

  val read_own : cell -> int
  (** Read of a cell that stays resident in the reader's cache because it is
      almost always written by the reading thread itself (warning words,
      own hazard slots): costs a single cycle when cached, a normal miss
      when another thread has written it since.  Equivalent to {!read} on
      the real backend. *)

  val write : cell -> int -> unit
  (** Plain word store.  Single-copy atomic (a racing {!read} returns the
      old or the new value, never a torn word) but carries no ordering of
      its own: publication is by the seq_cst {!cas}/{!faa} that follows
      it, or an explicit {!fence} — the paper's plain-write /
      explicit-fence memory model. *)

  val cas : cell -> int -> int -> bool
  (** [cas c expected v] — atomic compare-and-swap. *)

  val faa : cell -> int -> int
  (** [faa c d] — atomic fetch-and-add, returns the previous value. *)

  val fence : unit -> unit
  (** Full memory fence.  On the real backend this is a genuine
      [atomic_thread_fence(seq_cst)] touching no shared location, so
      concurrent fences do not contend; the sim backend charges
      {!Oa_simrt.Cost_model.t.fence} and yields. *)

  val zero_node : block -> int -> unit
  (** [zero_node b j] zeroes the [fields] words of node [j] — the
      [memset(obj, 0)] of the paper's Algorithm 5 — with word-granular
      stores, so racing optimistic readers never observe a torn word.
      The node's padding and its neighbours are untouched. *)

  val decommit_block : block -> unit
  (** [decommit_block b] takes a block whose nodes are all free, zeroes
      every word of it (padding words included) and — where the substrate
      can — returns the underlying physical pages to the OS.  The real
      backend fills words [base .. base + nodes*stride - 1] then
      [madvise(MADV_DONTNEED)]s their page-aligned interior: the mapping
      stays intact, so a stale optimistic reader racing with the decommit
      loads an old word or a zero, never faulting (the paper's Assumption
      3.1).  The sim backend just zeroes each cell.  Afterwards the cells
      remain valid and read 0; reusing them needs no recommit step (pages
      re-fault zeroed on the next store). *)

  val cpu_relax : unit -> unit
  (** Spin-wait hint for CAS retry backoff ([pause]/[yield]).  A no-op on
      the sim backend: simulated schedules must not depend on real-time
      backoff, and a failed simulated CAS is already a scheduling point. *)

  val rcell : 'a -> 'a rcell
  val rread : 'a rcell -> 'a
  val rwrite : 'a rcell -> 'a -> unit
  val rcas : 'a rcell -> 'a -> 'a -> bool

  val work : int -> unit
  (** [work c] accounts for [c] cycles of thread-local computation.  A
      no-op on the real backend. *)

  val op_work : unit -> unit
  (** Account the cost model's fixed per-operation overhead
      ({!Oa_simrt.Cost_model.t.op_overhead}); used by benchmark drivers.
      A no-op on the real backend. *)

  val par_run : n:int -> (int -> unit) -> unit
  (** [par_run ~n f] runs [f 0 .. f (n-1)] as [n] concurrent threads and
      waits for all of them. *)

  val elapsed_seconds : unit -> float
  (** Duration of the last completed {!par_run}: simulated makespan on the
      sim backend, wall-clock time on the real backend. *)

  val now_cycles : unit -> int
  (** The calling thread's clock: its cycle count on the sim backend,
      monotonic nanoseconds on the real backend.  Timestamps from
      different threads are comparable (one simulated timeline; one
      machine clock), which linearizability checking relies on. *)

  val tid : unit -> int
  (** Index of the calling thread within the current {!par_run}, or [-1]
      outside of one. *)

  val n_threads : unit -> int
  (** Thread count of the current (or last) {!par_run}. *)

  val max_threads : int
  (** Upper bound on [n] accepted by {!par_run}. *)

  val stall : int -> unit
  (** [stall c] deschedules the calling thread for [c] cycles (sim) or
      approximately [c] nanoseconds (real).  Used for failure injection. *)
end
