(** Michael's hazard pointers (TPDS 2004), the paper's [HP] baseline.

    Every read of a shared pointer publishes the target in a hazard slot,
    issues a full fence, and validates by re-reading the source cell — the
    costly read barrier whose elimination motivates optimistic access.
    Retired nodes are buffered locally and a scan frees those not covered
    by any thread's hazard slots.  Freed chunks are exchanged through a
    global pool so that threads with asymmetric allocate/retire behaviour
    do not starve each other. *)

module Ptr = Oa_mem.Ptr

module Make (Rt : Oa_runtime.Runtime_intf.S) = struct
  module R = Rt
  module A = Oa_mem.Arena.Make (R)
  module VP = Oa_core.Versioned_pool.Make (R)
  module I = Oa_core.Smr_intf

  type ctx = {
    mm : t;
    hps : R.cell array;  (* read slots, then 3 * max_cas owner slots *)
    shadow : int array;
        (* plain mirror of [hps]: slots are only ever written by their
           owning thread, so the mirror is exact, and the batched hazard
           carry can test it without an atomic read *)
    mutable owner_used : int;
    mutable retired : int array;
    mutable n_retired : int;
    mutable alloc_chunk : VP.chunk;
    mutable in_batch : bool;  (* inside [run_batch]: hazard-carry enabled *)
    mutable s_allocs : int;
    mutable s_retires : int;
    mutable s_recycled : int;
    mutable s_phases : int;
    mutable s_fences : int;
    o : Oa_obs.Recorder.t option;
    batch_hist : Oa_obs.Histogram.t option;
        (* resolved once so [run_batch] records without a name lookup *)
    prof : Oa_obs.Profile.t option;
        (* phase timers for cycle attribution; [None] unless the sink
           carries a profile clock *)
  }

  and t = {
    arena : A.t;
    cfg : I.config;
    ready : VP.Plain.t;
    registry : ctx list R.rcell;
    obs : Oa_obs.Sink.t;
  }

  let name = "HP"

  (* Test-only fault for the Oa_check explorer: remove the read barrier's
     publication entirely — [read_ptr] returns the raw read and neither
     publishes a hazard slot, fences, nor validates.  Traversals then run
     unprotected for their whole duration, so a concurrent scan is free to
     recycle any node a reader is holding, and the reader continues through
     rewritten memory (merely skipping the validation re-read is not
     enough on the sequentially-consistent simulator: the one-step-late
     publication still protects the node for the rest of the operation,
     and the single-step window it leaves is healed by the structures' own
     re-validation).  The flag is per functor application (each simulated
     backend instantiates its own copy), so setting it in one checking
     scenario cannot leak into another. *)
  let unsafe_skip_publication = ref false

  let create ?(obs = Oa_obs.Sink.disabled) arena cfg =
    { arena; cfg; ready = VP.Plain.create (); registry = R.rcell []; obs }

  let set_successor _ _ = ()

  let no_hp = -1

  let register mm =
    let cfg = mm.cfg in
    let nslots = cfg.I.hp_slots + (3 * cfg.I.max_cas) in
    let row = R.node_block ~nodes:1 ~fields:nslots in
    let hps = Array.init nslots (R.node_cell row 0) in
    Array.iter (fun c -> R.write c no_hp) hps;
    let shadow = Array.make nslots no_hp in
    let o = Oa_obs.Sink.register mm.obs in
    let ctx =
      {
        mm;
        hps;
        shadow;
        owner_used = 0;
        retired = Array.make (max 16 (2 * cfg.I.retire_threshold)) (-1);
        n_retired = 0;
        alloc_chunk = VP.make_chunk cfg.I.chunk_size;
        in_batch = false;
        s_allocs = 0;
        s_retires = 0;
        s_recycled = 0;
        s_phases = 0;
        s_fences = 0;
        o;
        batch_hist = I.obs_histogram o "op_batch_amortized";
        prof = I.obs_profile o;
      }
    in
    let rec add () =
      let l = R.rread mm.registry in
      if not (R.rcas mm.registry l (ctx :: l)) then add ()
    in
    add ();
    ctx

  let op_begin _ = ()
  let op_end _ = ()

  (* Batched execution: read slots are never cleared at operation end, so
     inside a batch a slot often still publishes exactly the node the next
     operation's read lands on (whenever consecutive operations, in
     submission order, revisit a node: a hot key, or another key on the
     same chain).  Such a read may keep the hazard without the publish /
     fence / re-validate cycle: the slot has held the node continuously
     since a validated publication (or a [protect_move] from one), so no
     scan since then can have freed it — the carry is as protected as a
     fresh validation, minus the fence. *)
  let run_batch ctx n f =
    if n > 0 then begin
      let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Batch_overhead in
      I.obs_hist ctx.batch_hist n;
      ctx.in_batch <- true;
      I.prof_leave ctx.prof Oa_obs.Phase.Batch_overhead t0;
      (* hand-rolled Fun.protect: no closure allocations per batch, and
         the flag reset must survive a Restart escaping the loop *)
      (try
         for i = 0 to n - 1 do
           f i
         done
       with e ->
         ctx.in_batch <- false;
         raise e);
      ctx.in_batch <- false
    end

  (* The HP read barrier: publish, fence, validate by re-reading the source
     cell; loop until stable.  Nulls need no protection.  Inside a batch, a
     slot already publishing the target lets the read skip the barrier (see
     [run_batch]). *)
  let rec protect ctx hp cell v =
    if Ptr.is_null v then v
    else if ctx.in_batch && Array.unsafe_get ctx.shadow hp = Ptr.unmark v
    then v (* hazard carry: [hp] is in range by construction (slot ids
              are static per structure), so the mirror probe on the
              batched fast path skips the bounds check *)
    else begin
      let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Hazard_publish in
      R.write ctx.hps.(hp) (Ptr.unmark v);
      Array.unsafe_set ctx.shadow hp (Ptr.unmark v);
      R.fence ();
      ctx.s_fences <- ctx.s_fences + 1;
      let v' = R.read cell in
      I.prof_leave ctx.prof Oa_obs.Phase.Hazard_publish t0;
      if v' = v then v else protect ctx hp cell v'
    end

  let read_ptr ctx ~hp cell =
    let v = R.read cell in
    if !unsafe_skip_publication then v else protect ctx hp cell v

  let read_data _ cell = R.read cell

  (* The pointer is already protected by another slot, which stays visible
     until overwritten, so publication order makes this safe without a
     fence (see Smr_intf). *)
  let protect_move ctx ~hp p =
    if not (Ptr.is_null p) then begin
      R.write ctx.hps.(hp) (Ptr.unmark p);
      ctx.shadow.(hp) <- Ptr.unmark p
    end

  let check _ = ()

  (* Operands of in-generator CASes are already covered by the read slots
     that led to them, so no extra publication is needed. *)
  let cas _ (d : R.cell I.desc) = R.cas d.target d.expected d.new_value

  (* Owner slots keep CAS-list objects protected through the wrap-up even
     if later operations of the generator loop overwrite the read slots.
     The objects are currently protected by read slots, so copying them
     needs no fence. *)
  let protect_owner ctx base used u =
    R.write ctx.hps.(base + used) u;
    ctx.shadow.(base + used) <- u;
    used + 1

  let protect_descs ctx cl =
    ctx.owner_used <- I.fold_operands protect_owner ctx ctx.mm.cfg.I.hp_slots cl

  let clear_descs ctx =
    let base = ctx.mm.cfg.I.hp_slots in
    for j = 0 to ctx.owner_used - 1 do
      R.write ctx.hps.(base + j) no_hp;
      ctx.shadow.(base + j) <- no_hp
    done;
    ctx.owner_used <- 0

  let on_restart _ = ()

  (* Scan (Michael's reclamation): free retired nodes not present in any
     thread's hazard slots. *)
  let scan ctx =
    let tr = I.prof_enter ctx.prof Oa_obs.Phase.Reclaim in
    let mm = ctx.mm in
    ctx.s_phases <- ctx.s_phases + 1;
    I.obs_incr ctx.o Oa_obs.Event.Hazard_scan;
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (t : ctx) ->
        Array.iter
          (fun slot ->
            let v = R.read slot in
            if v >= 0 then Hashtbl.replace tbl (Ptr.index v) ())
          t.hps)
      (R.rread mm.registry);
    let kept = ref 0 in
    let freed = ref 0 in
    let free_acc = ref (VP.make_chunk mm.cfg.I.chunk_size) in
    let flush () =
      if not (VP.chunk_empty !free_acc) then begin
        I.obs_add ctx.o Oa_obs.Event.Reclaim (!free_acc).VP.len;
        I.obs_incr ctx.o Oa_obs.Event.Pool_push;
        VP.Plain.push mm.ready !free_acc;
        free_acc := VP.make_chunk mm.cfg.I.chunk_size
      end
    in
    for i = 0 to ctx.n_retired - 1 do
      let idx = ctx.retired.(i) in
      if Hashtbl.mem tbl idx then begin
        ctx.retired.(!kept) <- idx;
        incr kept
      end
      else begin
        ctx.s_recycled <- ctx.s_recycled + 1;
        incr freed;
        if VP.chunk_full !free_acc then flush ();
        VP.chunk_push !free_acc idx
      end
    done;
    flush ();
    I.obs_observe ctx.o "reclaim_batch" !freed;
    ctx.n_retired <- !kept;
    I.prof_leave ctx.prof Oa_obs.Phase.Reclaim tr

  (* The [Retire] span ends before the threshold scan so a sampled retire
     that happens to trip the scan attributes the scan to [Reclaim], not
     [Retire]. *)
  let retire ctx p =
    let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Retire in
    ctx.s_retires <- ctx.s_retires + 1;
    I.obs_incr ctx.o Oa_obs.Event.Retire;
    if ctx.n_retired >= Array.length ctx.retired then begin
      let bigger = Array.make (2 * Array.length ctx.retired) (-1) in
      Array.blit ctx.retired 0 bigger 0 ctx.n_retired;
      ctx.retired <- bigger
    end;
    ctx.retired.(ctx.n_retired) <- Ptr.index (Ptr.unmark p);
    ctx.n_retired <- ctx.n_retired + 1;
    I.prof_leave ctx.prof Oa_obs.Phase.Retire t0;
    if ctx.n_retired >= ctx.mm.cfg.I.retire_threshold then scan ctx

  (* A threshold-independent scan; at quiescence no hazard slot is set, so
     everything this thread has retired is freed. *)
  let quiesce ctx =
    if ctx.n_retired > 0 then scan ctx;
    (* elastic arenas: return pooled free slots to their home chunks so
       fully-free chunks can shed their pages *)
    VP.drain_ready ?obs:ctx.o ~arena:ctx.mm.arena ~ready:ctx.mm.ready ()

  let refill ctx =
    let mm = ctx.mm in
    VP.refill ?obs:ctx.o ~arena:mm.arena ~ready:mm.ready
      ~chunk_size:mm.cfg.I.chunk_size
      ~reclaim:(fun ~attempt:_ ->
        let before = ctx.s_recycled in
        scan ctx;
        ctx.s_recycled > before)
      ()

  let alloc ctx =
    let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Alloc in
    if VP.chunk_empty ctx.alloc_chunk then ctx.alloc_chunk <- refill ctx;
    let idx = VP.chunk_pop ctx.alloc_chunk in
    let p = Ptr.of_index idx in
    A.zero_node ctx.mm.arena p;
    ctx.s_allocs <- ctx.s_allocs + 1;
    I.prof_leave ctx.prof Oa_obs.Phase.Alloc t0;
    p

  let dealloc ctx p =
    if VP.chunk_full ctx.alloc_chunk then begin
      I.obs_incr ctx.o Oa_obs.Event.Pool_push;
      VP.Plain.push ctx.mm.ready ctx.alloc_chunk;
      ctx.alloc_chunk <- VP.make_chunk ctx.mm.cfg.I.chunk_size
    end;
    VP.chunk_push ctx.alloc_chunk (Ptr.index (Ptr.unmark p))

  let stats mm =
    List.fold_left
      (fun acc (c : ctx) ->
        I.add_stats acc
          {
            I.allocs = c.s_allocs;
            retires = c.s_retires;
            recycled = c.s_recycled;
            restarts = 0;
            phases = c.s_phases;
            fences = c.s_fences;
          })
      I.empty_stats (R.rread mm.registry)
end
