(** Version-based reclamation (Sheffi, Herlihy & Petrank, arXiv
    2107.13843), the first scheme in this repo from beyond the paper's
    2015 field.

    Where OA validates optimistic reads with a per-thread {e warning bit}
    that reclaimers set at every phase, VBR validates them against a
    {e global version clock} that reclaimers bump before recycling: a
    thread records the version it observed at operation start and every
    read barrier re-checks that the clock has not moved.  An unchanged
    clock proves no node was freed during the operation's read window, so
    the reads — plain loads, no per-read fence — cannot have chained into
    recycled memory (the same induction as OA's Lemma on stale chains:
    within a free-quiet window a traversal starting from the live head
    only reaches nodes allocated for the whole window or retired during
    it).  A moved clock raises {!Oa_core.Smr_intf.Restart}; the tagged-
    index arena makes reads of already-recycled memory well-defined in
    the meantime (Assumption 3.1), which is exactly what VBR exploits.

    Writes must never land in recycled memory, so observable CASes keep
    OA's operand protection (publish hazard slots, fence, then re-check —
    here a version re-check instead of a warning-bit re-check): the
    reclaimer's bump/fence/scan and the mutator's publish/fence/re-check
    form the usual Dekker pair, so a CAS whose re-check passed either
    restarts or has its operands seen by every later scan.

    Retired nodes are buffered locally with the {e raw} clock value at
    retirement as their version stamp; a reclamation pass bumps the clock
    once, fences, scans the hazard slots, and frees every buffered node
    whose stamp is below the new clock and that no slot protects.  The
    clock is raw-monotone (an OCaml int, 63 bits, never wraps in
    practice); validation compares it under a mask of {!version_bits}
    bits so tests can force rollover — a bump that crosses the masked
    wrap boundary sweeps every registered thread's observed-version cell
    to a sentinel, so a reader surviving a full masked cycle restarts
    instead of spuriously revalidating. *)

module Ptr = Oa_mem.Ptr

module Make (Rt : Oa_runtime.Runtime_intf.S) = struct
  module R = Rt
  module A = Oa_mem.Arena.Make (R)
  module VP = Oa_core.Versioned_pool.Make (R)
  module I = Oa_core.Smr_intf

  type ctx = {
    mm : t;
    sver : R.cell;
        (* the masked clock value this thread validates against: written
           by the owner at op/batch start and on restart, and swept to
           [swept_ver] by a reclaimer whose bump crossed the masked wrap
           boundary (both plain single-copy-atomic stores; the losing
           order only ever forces a spurious restart, never a spurious
           acceptance) *)
    hps : R.cell array;  (* write slots, then 3 * max_cas owner slots *)
    mutable owner_used : int;
    mutable retired_idx : int array;
    mutable retired_ver : int array;
        (* raw clock value at retirement, parallel to [retired_idx]: a
           node is recyclable once the clock has been bumped past its
           stamp, because every validated read window open at its
           retirement has restarted or revalidated since *)
    mutable n_retired : int;
    mutable alloc_chunk : VP.chunk;
    mutable in_batch : bool;  (* one clock observation covers the batch *)
    mutable s_allocs : int;
    mutable s_retires : int;
    mutable s_recycled : int;
    mutable s_restarts : int;
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
    gver : R.cell;  (* the global version clock, raw monotone *)
    ready : VP.Plain.t;
    registry : ctx list R.rcell;
    obs : Oa_obs.Sink.t;
  }

  let name = "VBR"

  (* Test-only fault for the Oa_check explorer: drop the version
     re-validation everywhere it appears — after optimistic reads
     ([read_ptr] and [check] accept whatever the plain load returned) and
     after the CAS-operand publication ([cas]/[protect_descs] commit
     without confirming the clock), the scheme's one safety mechanism
     removed wholesale, exactly as [unsafe_skip_publication] removes
     HP's.  Traversals then chain freely through recycled nodes and a CAS
     can land in memory that was recycled before its operands were
     published (the publication still happens, but too late to matter),
     which are the precise failure modes the version check exists to
     prevent.  The flag is per functor application (each simulated
     backend instantiates its own copy), so setting it in one checking
     scenario cannot leak into another. *)
  let unsafe_skip_validation = ref false

  (* Test-only clock width.  Validation compares the clock under a mask
     of this many bits; the default effectively never wraps (the raw
     clock is a 63-bit OCaml int bumped once per reclamation pass).  The
     wraparound unit test shrinks it to a handful of bits to force
     rollover on a deterministic sim schedule.  Per functor application,
     like [unsafe_skip_validation]. *)
  let version_bits = ref 62

  let vmask () = (1 lsl !version_bits) - 1

  (* Sentinel a wrap-crossing bump sweeps into every [sver]: negative, so
     it can never compare equal to a masked clock value and the swept
     thread's next validation restarts. *)
  let swept_ver = -1

  let create ?(obs = Oa_obs.Sink.disabled) arena cfg =
    {
      arena;
      cfg;
      gver = R.cell 0;
      ready = VP.Plain.create ();
      registry = R.rcell [];
      obs;
    }

  let set_successor _ _ = ()

  let no_hp = -1

  let register mm =
    let cfg = mm.cfg in
    let nslots = cfg.I.hp_slots + (3 * cfg.I.max_cas) in
    (* All hazard slots of one thread share a cache line: the owner
       writes them cheaply, the (infrequent) reclaimer pays the misses. *)
    let row = R.node_block ~nodes:1 ~fields:nslots in
    let hps = Array.init nslots (R.node_cell row 0) in
    Array.iter (fun c -> R.write c no_hp) hps;
    let o = Oa_obs.Sink.register mm.obs in
    let ctx =
      {
        mm;
        sver = R.cell (R.read mm.gver land vmask ());
        hps;
        owner_used = 0;
        retired_idx = Array.make (max 16 (2 * cfg.I.retire_threshold)) (-1);
        retired_ver = Array.make (max 16 (2 * cfg.I.retire_threshold)) 0;
        n_retired = 0;
        alloc_chunk = VP.make_chunk cfg.I.chunk_size;
        in_batch = false;
        s_allocs = 0;
        s_retires = 0;
        s_recycled = 0;
        s_restarts = 0;
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

  (* Observe the clock: store the masked value, then confirm the clock
     did not move across the store.  The confirm loop closes the wrap
     race — a reclaimer whose bump crossed the masked boundary sweeps
     [sver] after bumping, so if the sweep could land between our store
     and a reader's use, the clock has necessarily moved and the re-read
     catches it.  (A full masked cycle completing between two adjacent
     reads of the clock is not representable at the default width and is
     out of scope for the test widths' deterministic schedules.) *)
  let rec refresh ctx =
    let g = R.read ctx.mm.gver land vmask () in
    R.write ctx.sver g;
    if R.read ctx.mm.gver land vmask () <> g then refresh ctx

  let op_begin ctx = if not ctx.in_batch then refresh ctx
  let op_end _ = ()

  (* The VBR read barrier: no fence, no publication — just the clock
     compared against the value observed at operation start.  A moved (or
     swept) clock means nodes may have been recycled during the read
     window: refresh and roll back.  Re-observing before the raise is
     what lets the re-executed method validate successfully. *)
  let validate ctx =
    let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Warning_check in
    let g = R.read ctx.mm.gver land vmask () in
    if g <> R.read_own ctx.sver then begin
      R.write ctx.sver g;
      ctx.s_restarts <- ctx.s_restarts + 1;
      I.obs_incr ctx.o Oa_obs.Event.Rollback;
      I.prof_leave ctx.prof Oa_obs.Phase.Warning_check t0;
      raise I.Restart
    end;
    I.prof_leave ctx.prof Oa_obs.Phase.Warning_check t0

  let read_ptr ctx ~hp:_ cell =
    let v = R.read cell in
    if not !unsafe_skip_validation then validate ctx;
    v

  let read_data _ctx cell = R.read cell
  let check ctx = if not !unsafe_skip_validation then validate ctx
  let protect_move _ctx ~hp:_ _p = ()

  (* Batched execution: one clock observation at the batch boundary
     covers every operation inside — the per-operation [op_begin]
     becomes a no-op, so a batch of n pays one clock read where n
     sequential operations pay n.  The per-read validations inside are
     untouched (they are what safety rests on); a bump landing mid-batch
     restarts the current operation, whose refresh re-arms the rest of
     the batch at the new version. *)
  let run_batch ctx n f =
    if n > 0 then begin
      let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Batch_overhead in
      I.obs_hist ctx.batch_hist n;
      I.prof_leave ctx.prof Oa_obs.Phase.Batch_overhead t0;
      refresh ctx;
      ctx.in_batch <- true;
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

  let clear_write_hps ctx =
    for i = 0 to ctx.mm.cfg.I.hp_slots - 1 do
      R.write ctx.hps.(i) no_hp
    done

  (* An observable CAS (the shape of OA's Algorithm 2 with the warning
     re-check replaced by a version re-check): publish the operands,
     fence, confirm the clock has not moved since operation start.  The
     Dekker pair with the reclaimer's bump/fence/scan guarantees that a
     confirmed CAS has its operands in every later scan's hazard table,
     so the targeted memory cannot be recycled under the CAS. *)
  let cas ctx (d : R.cell I.desc) =
    let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Hazard_publish in
    R.write ctx.hps.(0) (Ptr.unmark d.obj);
    if d.expected_is_ptr && not (Ptr.is_null d.expected) then
      R.write ctx.hps.(1) (Ptr.unmark d.expected);
    if d.new_is_ptr && not (Ptr.is_null d.new_value) then
      R.write ctx.hps.(2) (Ptr.unmark d.new_value);
    R.fence ();
    ctx.s_fences <- ctx.s_fences + 1;
    (if not !unsafe_skip_validation then
       let g = R.read ctx.mm.gver land vmask () in
       if g <> R.read_own ctx.sver then begin
         R.write ctx.sver g;
         clear_write_hps ctx;
         ctx.s_restarts <- ctx.s_restarts + 1;
         I.obs_incr ctx.o Oa_obs.Event.Rollback;
         I.prof_leave ctx.prof Oa_obs.Phase.Hazard_publish t0;
         raise I.Restart
       end);
    I.prof_leave ctx.prof Oa_obs.Phase.Hazard_publish t0;
    let res = R.cas d.target d.expected d.new_value in
    clear_write_hps ctx;
    res

  module Owner = I.Owner_slots (R)

  (* Protect the CAS list from the end of the generator to the end of
     the wrap-up (OA's Algorithm 3 with the version re-check).  Duplicate
     objects are protected once; an empty list needs no fence and no
     check. *)
  let protect_descs ctx (cl : R.cell I.cas_list) =
    if cl.len > 0 then begin
      let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Hazard_publish in
      let base = ctx.mm.cfg.I.hp_slots in
      let used = I.fold_operands Owner.protect ctx.hps base cl in
      ctx.owner_used <- used;
      if used > 0 then begin
        R.fence ();
        ctx.s_fences <- ctx.s_fences + 1;
        if not !unsafe_skip_validation then begin
          let g = R.read ctx.mm.gver land vmask () in
          if g <> R.read_own ctx.sver then begin
            R.write ctx.sver g;
            for j = 0 to used - 1 do
              R.write ctx.hps.(base + j) no_hp
            done;
            ctx.owner_used <- 0;
            ctx.s_restarts <- ctx.s_restarts + 1;
            I.obs_incr ctx.o Oa_obs.Event.Rollback;
            I.prof_leave ctx.prof Oa_obs.Phase.Hazard_publish t0;
            raise I.Restart
          end
        end
      end;
      I.prof_leave ctx.prof Oa_obs.Phase.Hazard_publish t0
    end

  let clear_descs ctx =
    let base = ctx.mm.cfg.I.hp_slots in
    for j = 0 to ctx.owner_used - 1 do
      R.write ctx.hps.(base + j) no_hp
    done;
    ctx.owner_used <- 0

  let on_restart ctx = clear_write_hps ctx

  let push_free ctx idx =
    let mm = ctx.mm in
    if VP.chunk_full ctx.alloc_chunk then begin
      I.obs_incr ctx.o Oa_obs.Event.Pool_push;
      VP.Plain.push mm.ready ctx.alloc_chunk;
      ctx.alloc_chunk <- VP.make_chunk mm.cfg.I.chunk_size
    end;
    VP.chunk_push ctx.alloc_chunk idx

  (* Bump the global clock by one.  A lost CAS means a concurrent pass
     bumped it, which serves the same purpose — eligibility and
     invalidation only need the clock to have moved, not to have moved by
     us.  A bump whose new value crosses the masked wrap boundary sweeps
     every registered thread's observed version to the sentinel, so no
     reader can survive a full masked cycle and revalidate spuriously. *)
  let bump_clock ctx =
    let mm = ctx.mm in
    let g0 = R.read mm.gver in
    if R.cas mm.gver g0 (g0 + 1) then begin
      ctx.s_phases <- ctx.s_phases + 1;
      I.obs_incr ctx.o Oa_obs.Event.Phase_flip;
      if (g0 + 1) land vmask () = 0 then
        List.iter
          (fun (t : ctx) -> R.write t.sver swept_ver)
          (R.rread mm.registry)
    end

  (* A reclamation pass: bump the clock, fence, scan every thread's
     hazard slots, then free the locally buffered retired nodes whose
     stamp the clock has passed and that no slot protects.  The fence
     orders the bump before the scan (the reclaimer's half of the Dekker
     pair with [cas]/[protect_descs]); readers need no pairing — a
     reader that missed the bump restarts at its next validation, after
     which it can no longer reach the freed nodes. *)
  let reclaim_pass ctx =
    let tr = I.prof_enter ctx.prof Oa_obs.Phase.Reclaim in
    let mm = ctx.mm in
    bump_clock ctx;
    R.fence ();
    ctx.s_fences <- ctx.s_fences + 1;
    let gnow = R.read mm.gver in
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
    for i = 0 to ctx.n_retired - 1 do
      let idx = ctx.retired_idx.(i) in
      let rv = ctx.retired_ver.(i) in
      if rv >= gnow || Hashtbl.mem tbl idx then begin
        ctx.retired_idx.(!kept) <- idx;
        ctx.retired_ver.(!kept) <- rv;
        incr kept
      end
      else begin
        ctx.s_recycled <- ctx.s_recycled + 1;
        incr freed;
        push_free ctx idx
      end
    done;
    if !freed > 0 then begin
      I.obs_add ctx.o Oa_obs.Event.Reclaim !freed;
      I.obs_observe ctx.o "reclaim_batch" !freed
    end;
    ctx.n_retired <- !kept;
    I.prof_leave ctx.prof Oa_obs.Phase.Reclaim tr

  (* The [Retire] span ends before the threshold pass so a sampled retire
     that happens to trip reclamation attributes the pass to [Reclaim],
     not [Retire]. *)
  let retire ctx p =
    let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Retire in
    ctx.s_retires <- ctx.s_retires + 1;
    I.obs_incr ctx.o Oa_obs.Event.Retire;
    if ctx.n_retired >= Array.length ctx.retired_idx then begin
      let n = Array.length ctx.retired_idx in
      let bigger_idx = Array.make (2 * n) (-1) in
      let bigger_ver = Array.make (2 * n) 0 in
      Array.blit ctx.retired_idx 0 bigger_idx 0 ctx.n_retired;
      Array.blit ctx.retired_ver 0 bigger_ver 0 ctx.n_retired;
      ctx.retired_idx <- bigger_idx;
      ctx.retired_ver <- bigger_ver
    end;
    ctx.retired_idx.(ctx.n_retired) <- Ptr.index (Ptr.unmark p);
    ctx.retired_ver.(ctx.n_retired) <- R.read ctx.mm.gver;
    ctx.n_retired <- ctx.n_retired + 1;
    I.prof_leave ctx.prof Oa_obs.Phase.Retire t0;
    if ctx.n_retired >= ctx.mm.cfg.I.retire_threshold then reclaim_pass ctx

  (* One pass frees everything this thread has retired: the pass's bump
     moves the clock past every stamp, and at quiescence no hazard slot
     is set. *)
  let quiesce ctx =
    if ctx.n_retired > 0 then reclaim_pass ctx;
    (* elastic arenas: return pooled free slots to their home chunks so
       fully-free chunks can shed their pages *)
    VP.drain_ready ?obs:ctx.o ~arena:ctx.mm.arena ~ready:ctx.mm.ready ()

  let refill ctx =
    let mm = ctx.mm in
    VP.refill ?obs:ctx.o ~arena:mm.arena ~ready:mm.ready
      ~chunk_size:mm.cfg.I.chunk_size
      ~reclaim:(fun ~attempt:_ ->
        let before = ctx.s_recycled in
        reclaim_pass ctx;
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

  let dealloc ctx p = push_free ctx (Ptr.index (Ptr.unmark p))

  let stats mm =
    List.fold_left
      (fun acc (c : ctx) ->
        I.add_stats acc
          {
            I.allocs = c.s_allocs;
            retires = c.s_retires;
            recycled = c.s_recycled;
            restarts = c.s_restarts;
            phases = c.s_phases;
            fences = c.s_fences;
          })
      I.empty_stats (R.rread mm.registry)
end
