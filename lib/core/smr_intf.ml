(** Common interface of all safe-memory-reclamation (SMR) schemes.

    Every scheme — the paper's {!Oa} as well as the baselines in [Oa_smr]
    ([No_recl], [Hazard_pointers], [Ebr], [Anchors]) — implements
    {!module-type-S} over a {!Oa_runtime.Runtime_intf.S} backend and a node
    {!Oa_mem.Arena}.  Data structures are written once against this
    interface and instantiated per scheme.

    The protection discipline follows the normalized-form contract of the
    paper:
    - every read of a shared pointer field goes through {!S.read_ptr};
    - reads of data fields of a node whose protection is already
      established use {!S.read_data}, followed by {!S.check} before the
      values are relied upon (OA's batched-reads optimization, Appendix E);
    - every observable CAS outside the CAS-executor goes through {!S.cas}
      (the paper's Algorithm 2);
    - the CAS list produced by a generator is protected with
      {!S.protect_descs} (Algorithm 3) and released with {!S.clear_descs}
      at the end of the wrap-up.

    Any of the barrier operations may raise {!Restart}, which the
    {!Normalized} driver catches to re-run the current generator or
    wrap-up method from scratch. *)

module Ptr = Oa_mem.Ptr
module Arena = Oa_mem.Arena

exception Restart
(** Raised by a barrier when the running method may have observed stale
    values and must roll back to the start of the current generator or
    wrap-up method. *)

exception Arena_exhausted
(** Raised by [alloc] when no node can be produced even after repeated
    reclamation attempts: the arena was sized too small for the workload
    (see the paper's discussion of the [delta] slack in Figure 3). *)

type config = {
  chunk_size : int;
      (** local-pool chunk size; the paper uses 126 and studies the knob in
          Figure 2 *)
  hp_slots : int;
      (** hazard-pointer slots for in-generator CASes; 3 suffices for the
          list and hash table (Algorithm 2) *)
  max_cas : int;
      (** maximum length of a CAS list (the paper's [C]); bounds the
          owner hazard pointers of Algorithm 3 *)
  retire_threshold : int;
      (** HP and Anchors: scan after this many local retires (the paper's
          [k = delta/threads] in Figure 3) *)
  epoch_threshold : int;
      (** EBR: attempt an epoch advance every this many operations (the
          paper's [q]) *)
  anchor_interval : int;
      (** Anchors: post an anchor once per this many reads (the paper's
          [K = 1000]) *)
  ebr_op_work : int;
      (** EBR only: extra per-operation cycles charged on the simulated
          backend, modelling the heavyweight per-operation path (integrated
          allocator, epoch machinery) of Fraser's implementation, which is
          the comparator the paper measured; calibrated in EXPERIMENTS.md
          against the paper's hash-table panel.  Ignored on the real
          backend. *)
}

let default_config =
  {
    chunk_size = 126;
    hp_slots = 3;
    max_cas = 1;
    retire_threshold = 512;
    epoch_threshold = 640;
    anchor_interval = 1000;
    ebr_op_work = 45;
  }

(** Counters exposed by schemes for tests and reports; all zero when a
    scheme does not track a given statistic. *)
type stats = {
  allocs : int;
  retires : int;
  recycled : int;  (** objects made available for re-allocation *)
  restarts : int;  (** rollbacks triggered by barriers *)
  phases : int;  (** reclamation phases / scans / epoch advances *)
  fences : int;  (** full fences issued by barriers *)
}

let empty_stats =
  { allocs = 0; retires = 0; recycled = 0; restarts = 0; phases = 0; fences = 0 }

let add_stats a b =
  {
    allocs = a.allocs + b.allocs;
    retires = a.retires + b.retires;
    recycled = a.recycled + b.recycled;
    restarts = a.restarts + b.restarts;
    phases = a.phases + b.phases;
    fences = a.fences + b.fences;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "allocs=%d retires=%d recycled=%d restarts=%d phases=%d fences=%d"
    s.allocs s.retires s.recycled s.restarts s.phases s.fences

(** {2 Telemetry helpers}

    Schemes record {!Oa_obs.Event} occurrences through a per-thread
    [Oa_obs.Recorder.t option] obtained from the sink at registration time.
    The option is [None] whenever the sink is disabled (the default), so
    the hot-path cost of instrumentation is a single pattern match. *)

let obs_incr o ev =
  match o with None -> () | Some r -> Oa_obs.Recorder.incr r ev

let obs_add o ev n =
  match o with None -> () | Some r -> Oa_obs.Recorder.add r ev n

let obs_observe o name v =
  match o with None -> () | Some r -> Oa_obs.Recorder.observe r name v

(* Histogram observation is on the batched hot path (once per
   [run_batch]); resolving the histogram by name each time would put a
   string-keyed lookup there.  Resolve the handle once at registration
   with [obs_histogram] and bump it with [obs_hist]. *)

let obs_histogram o name =
  match o with
  | None -> None
  | Some r -> Some (Oa_obs.Recorder.histogram r name)

let obs_hist h v =
  match h with None -> () | Some h -> Oa_obs.Histogram.observe h v

(* Phase timers for the cycle-attribution profiler.  Schemes resolve the
   per-thread [Profile.t option] once at registration ([obs_profile]) and
   bracket their phase spans with [prof_enter]/[prof_leave].  With
   profiling off — a disabled sink, or an enabled sink without a profile
   clock — the option is [None] and the bracket reduces to one match plus
   one dead store, keeping BENCH_core numbers honest.  [prof_enter]'s
   return value is opaque to callers: thread it to the matching
   [prof_leave] unchanged (it is a sampled-start timestamp or a
   skip sentinel). *)

let obs_profile o =
  match o with None -> None | Some r -> Oa_obs.Recorder.profile r

let prof_enter p ph =
  match p with None -> min_int | Some pr -> Oa_obs.Profile.enter pr ph

let prof_leave p ph t0 =
  match p with None -> () | Some pr -> Oa_obs.Profile.leave pr ph t0

(** A CAS descriptor as produced by a CAS-generator method: the target
    cell of node [obj], expected and new values, and whether each value
    operand is a (possibly marked) pointer that needs protection.
    Parameterised by the backend's cell type.  The fields are mutable so
    an operation fills descriptors that live in its thread's preallocated
    buffers ({!cas_list}, and a scratch descriptor for in-generator
    {!S.cas}es) instead of allocating one per CAS. *)
type 'cell desc = {
  mutable obj : Ptr.t;  (** unmarked owner of the target field *)
  mutable target : 'cell;
  mutable expected : int;
  mutable new_value : int;
  mutable expected_is_ptr : bool;
  mutable new_is_ptr : bool;
}

(** A CAS list: descriptors [descs.(0 .. len-1)], in execution order.  A
    structure keeps one per thread, sized for its longest list, and each
    generator run refills it from [len = 0]. *)
type 'cell cas_list = { descs : 'cell desc array; mutable len : int }

(** [fold_operands f env base cl] visits every non-null pointer operand
    of [cl]'s descriptors in execution order — each descriptor's [obj],
    then [expected] and [new_value] when they are pointers — and calls
    [f env base used p] with the operand unmarked, threading the slot
    count [used] from 0; it returns the final count.  This is the one
    walk every scheme's {!S.protect_descs} makes.  [f] is a functor- or
    top-level function, so protecting a CAS list allocates nothing. *)
let rec fold_operands_from f env base (cl : _ cas_list) i used =
  if i >= cl.len then used
  else begin
    let d = cl.descs.(i) in
    let used =
      if Ptr.is_null d.obj then used else f env base used (Ptr.unmark d.obj)
    in
    let used =
      if d.expected_is_ptr && not (Ptr.is_null d.expected) then
        f env base used (Ptr.unmark d.expected)
      else used
    in
    let used =
      if d.new_is_ptr && not (Ptr.is_null d.new_value) then
        f env base used (Ptr.unmark d.new_value)
      else used
    in
    fold_operands_from f env base cl (i + 1) used
  end

let fold_operands f env base cl = fold_operands_from f env base cl 0 0

(** Owner hazard slots with the paper's "basic optimization" (OA, VBR):
    [protect hps base used u] publishes [u] in slot [base + used] unless
    one of the filled slots [base .. base + used - 1] already holds it,
    and returns the new slot count.  The duplicate scan reads every
    filled slot, without an early exit: on the simulator each read is a
    costed access. *)
module Owner_slots (R : Oa_runtime.Runtime_intf.S) = struct
  let rec holds hps base u j used found =
    if j >= used then found
    else holds hps base u (j + 1) used (R.read hps.(base + j) = u || found)

  let protect (hps : R.cell array) base used u =
    if holds hps base u 0 used false then used
    else begin
      R.write hps.(base + used) u;
      used + 1
    end
end

module type S = sig
  module R : Oa_runtime.Runtime_intf.S

  type t
  (** Shared scheme state (pools, registries). *)

  type ctx
  (** Per-thread context; must only be used by its owning thread. *)

  val name : string

  val create : ?obs:Oa_obs.Sink.t -> Arena.Make(R).t -> config -> t
  (** [create ?obs arena cfg] builds the shared scheme state.  [obs]
      (default {!Oa_obs.Sink.disabled}) receives the scheme's event
      telemetry: each {!register} draws a per-thread recorder from it, and
      the scheme reports the common SMR event vocabulary through that
      recorder ({!Oa_obs.Event}). *)

  val set_successor : t -> (Ptr.t -> Ptr.t) -> unit
  (** Give the scheme a way to walk from a node to its successor in the
      structure (a raw arena read).  Only the Anchors scheme uses it, for
      its protection walk; a no-op everywhere else.  Structures install it
      at creation time. *)

  val register : t -> ctx
  (** Register the calling thread; call once per thread, reuse across
      operations. *)

  val op_begin : ctx -> unit
  val op_end : ctx -> unit

  val run_batch : ctx -> int -> (int -> unit) -> unit
  (** [run_batch ctx n f] executes [f 0 .. f (n-1)] — each a complete
      operation on [ctx], typically a {!Normalized} [run] — as one
      batch, amortising the scheme's per-operation setup across the batch:

      - OA checks (and clears) the warning bit once at the batch boundary,
        where nothing is in flight and so nothing needs rolling back; the
        per-read {!check} barriers inside each operation are unchanged
        (they are what safety rests on);
      - HP keeps validated hazard slots live across consecutive
        operations: a read whose slot already publishes the target skips
        the publish/fence/re-validate cycle, since a continuously
        published hazard has protected the node since its last validation;
      - EBR announces the epoch (publish + fence) once for the whole
        batch instead of per operation, pinning the epoch for the batch's
        duration — reclamation is delayed by at most one batch, never
        compromised;
      - NoRecl, Anchors and RC have no per-operation setup worth
        amortising and run the plain loop.

      Each call records the batch size in the [op_batch_amortized]
      histogram of the scheme's telemetry sink.  Operations inside a batch
      retain their one-at-a-time semantics: [run_batch ctx 1 f] is
      behaviourally equivalent to [f 0]. *)

  val alloc : ctx -> Ptr.t
  (** Allocate a zeroed node.  May internally run reclamation.  Call it
      inside a generator: a scheme whose reclamation is blocked by the
      stalled operation itself (Anchors) rolls that operation back.
      @raise Restart when the calling operation must roll back.
      @raise Arena_exhausted when the arena is undersized. *)

  val dealloc : ctx -> Ptr.t -> unit
  (** Return a node that was never published to shared memory. *)

  val retire : ctx -> Ptr.t -> unit
  (** Hand an unlinked node to the reclamation scheme ({e proper} retire:
      the node is no longer reachable from the structure, and only one
      thread retires it).  Never raises {!Restart}. *)

  val read_ptr : ctx -> hp:int -> R.cell -> int
  (** Protected read of a pointer-valued shared field.  [hp] names the
      hazard slot used by HP-style schemes; OA and EBR ignore it.
      @raise Restart when a rollback is required. *)

  val protect_move : ctx -> hp:int -> Ptr.t -> unit
  (** [protect_move ctx ~hp p] additionally publishes [p] in hazard slot
      [hp].  [p] must currently be protected by another slot (or be a node
      that is never reclaimed, like a sentinel): because the old slot is
      still visible when the new one is written, no fence is needed.  Used
      by multi-level traversals to park pointers in stable slots while the
      rotating slots move on.  No-op for schemes without per-read hazard
      slots. *)

  val read_data : ctx -> R.cell -> int
  (** Unchecked read of a data field.  The caller must either already hold
      protection for the node (HP discipline) or call {!check} before using
      the value (OA discipline). *)

  val check : ctx -> unit
  (** OA: warning-bit check (Algorithm 1); no-op for other schemes.
      @raise Restart when a rollback is required. *)

  val cas : ctx -> R.cell desc -> bool
  (** Observable CAS with operand protection (Algorithm 2).
      @raise Restart when a rollback is required {e before} the CAS is
      attempted; once attempted, the result is returned. *)

  val protect_descs : ctx -> R.cell cas_list -> unit
  (** Protect all objects of a CAS list until {!clear_descs} (Algorithm 3);
      called at the end of a generator method.  Must not retain the list:
      the caller refills it for its next operation.
      @raise Restart when a rollback is required. *)

  val clear_descs : ctx -> unit
  (** Drop the protections of {!protect_descs}; called at the end of the
      wrap-up method. *)

  val on_restart : ctx -> unit
  (** Reset per-operation protection state; called by the driver after
      catching {!Restart} from a generator. *)

  val quiesce : ctx -> unit
  (** Hand the calling thread's buffered retired nodes to the global
      machinery and attempt one reclamation pass (an HP/Anchors scan, an
      EBR epoch advance plus limbo sweep, an OA phase), regardless of the
      scheme's thresholds.  Safe between any two operations of the
      calling thread — it reuses the same path the scheme runs under
      allocation pressure, and HP first drops the read hazards its last
      operation left published — but intended for quiescence: a draining
      server calls it on every context before shutdown so the final
      retire/reclaim accounting reflects everything reclaimable rather
      than threshold residue.  Never raises {!Restart} in the
      calling thread (concurrent OA threads may be rolled back, as by any
      phase).  No-op for schemes that reclaim eagerly or not at all. *)

  val stats : t -> stats
  (** Aggregate statistics over all registered threads. *)
end
