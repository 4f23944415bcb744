(** The optimistic access memory-reclamation scheme (the paper's Section 4).

    Reads of shared memory are executed optimistically — they may observe a
    node that has already been reclaimed and recycled — and are validated
    {e after} the fact by checking the thread's {e warning bit}, set by
    reclaimers at every phase change.  A set bit rolls the thread back to
    the start of its current generator or wrap-up method (exception
    {!Smr_intf.Restart}).  Writes can never be allowed to hit recycled
    memory, so observable CASes protect their operands with a small number
    of hazard pointers (Algorithm 2), and the CAS list produced by a
    generator is protected from the generator's end to the wrap-up's end
    (Algorithm 3).

    Reclamation is organised in phases over three shared pools of node
    chunks (Algorithms 4-6): retired nodes accumulate in the [retired]
    pool; a phase swap moves them to the [processing] pool and bumps the
    pool versions; processing moves unprotected nodes to the [ready] pool
    from which allocation is served.  The warning word of every thread is
    [version lor bit] and is advanced by the reclaimer with a CAS that can
    succeed only once per phase (the paper's Appendix E optimization), so
    each thread restarts at most once per phase.

    Deviation from the literal Algorithm 6, documented in DESIGN.md: when a
    phase swap finds leftover chunks in the processing pool (possible when
    all processors of the previous phase returned early on a version
    mismatch), we merge them into the new phase instead of dropping them,
    which avoids leaking arena slots. *)

module Ptr = Oa_mem.Ptr

module Make (Rt : Oa_runtime.Runtime_intf.S) = struct
  module R = Rt
  module A = Oa_mem.Arena.Make (R)
  module VP = Versioned_pool.Make (R)

  type ctx = {
    mm : t;
    warning : R.cell;  (* packed [version lor warning_bit] *)
    hps : R.cell array;  (* write slots, then 3 * max_cas owner slots *)
    mutable owner_used : int;
    mutable local_ver : int;
    mutable alloc_chunk : VP.chunk;
    mutable retire_chunk : VP.chunk;
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
    cfg : Smr_intf.config;
    ready : VP.Plain.t;
    retired : VP.t;
    processing : VP.t;
    registry : ctx list R.rcell;
    obs : Oa_obs.Sink.t;
  }

  let name = "OA"

  let create ?(obs = Oa_obs.Sink.disabled) arena cfg =
    {
      arena;
      cfg;
      ready = VP.Plain.create ();
      retired = VP.create ();
      processing = VP.create ();
      registry = R.rcell [];
      obs;
    }

  let set_successor _ _ = ()

  let no_hp = -1

  let register mm =
    let cfg = mm.cfg in
    let nslots = cfg.Smr_intf.hp_slots + (3 * cfg.Smr_intf.max_cas) in
    (* All hazard slots of one thread share a cache line: the owner writes
       them cheaply, the (infrequent) reclaimer pays the misses. *)
    let row = R.node_block ~nodes:1 ~fields:nslots in
    let hps = Array.init nslots (R.node_cell row 0) in
    Array.iter (fun c -> R.write c no_hp) hps;
    let start_ver = (VP.version mm.retired) land lnot 1 in
    let o = Oa_obs.Sink.register mm.obs in
    let ctx =
      {
        mm;
        warning = R.cell start_ver;
        hps;
        owner_used = 0;
        local_ver = start_ver;
        alloc_chunk = VP.make_chunk cfg.Smr_intf.chunk_size;
        retire_chunk = VP.make_chunk cfg.Smr_intf.chunk_size;
        s_allocs = 0;
        s_retires = 0;
        s_recycled = 0;
        s_restarts = 0;
        s_phases = 0;
        s_fences = 0;
        o;
        batch_hist = Smr_intf.obs_histogram o "op_batch_amortized";
        prof = Smr_intf.obs_profile o;
      }
    in
    (* Registration CASes contend when many threads start at once; back
       off exponentially between retries instead of hammering the line. *)
    let rec add backoff =
      let l = R.rread mm.registry in
      if not (R.rcas mm.registry l (ctx :: l)) then begin
        for _ = 1 to backoff do
          R.cpu_relax ()
        done;
        add (min (2 * backoff) 256)
      end
    in
    add 1;
    ctx

  let op_begin _ = ()
  let op_end _ = ()

  (* Batched execution: absorb a pending warning once at the batch
     boundary.  Nothing is in flight between operations, so a set bit can
     be cleared without rolling anything back — the restart it would have
     forced at the first barrier of the next operation would re-execute a
     method that has not yet observed anything.  The per-read [check]
     barriers inside each operation are untouched; they remain the safety
     mechanism.  The benefit is that a phase flip that lands between
     operations of a batch costs zero rollbacks instead of one per
     thread. *)
  let run_batch ctx n f =
    if n > 0 then begin
      let t0 = Smr_intf.prof_enter ctx.prof Oa_obs.Phase.Batch_overhead in
      let w = R.read_own ctx.warning in
      if w land 1 = 1 then ignore (R.cas ctx.warning w (w land lnot 1));
      Smr_intf.obs_hist ctx.batch_hist n;
      Smr_intf.prof_leave ctx.prof Oa_obs.Phase.Batch_overhead t0;
      for i = 0 to n - 1 do
        f i
      done
    end

  (* Algorithm 1: the read barrier.  Clearing the bit before restarting is
     sound because the restart re-enters the method from scratch and can no
     longer reach nodes retired before the phase began. *)
  let check ctx =
    let t0 = Smr_intf.prof_enter ctx.prof Oa_obs.Phase.Warning_check in
    let w = R.read_own ctx.warning in
    if w land 1 = 1 then begin
      ignore (R.cas ctx.warning w (w land lnot 1));
      ctx.s_restarts <- ctx.s_restarts + 1;
      Smr_intf.obs_incr ctx.o Oa_obs.Event.Rollback;
      Smr_intf.prof_leave ctx.prof Oa_obs.Phase.Warning_check t0;
      raise Smr_intf.Restart
    end;
    Smr_intf.prof_leave ctx.prof Oa_obs.Phase.Warning_check t0

  let read_ptr ctx ~hp:_ cell =
    let v = R.read cell in
    check ctx;
    v

  let read_data _ctx cell = R.read cell
  let protect_move _ctx ~hp:_ _p = ()

  let clear_write_hps ctx =
    for i = 0 to ctx.mm.cfg.Smr_intf.hp_slots - 1 do
      R.write ctx.hps.(i) no_hp
    done

  (* Algorithm 2: an observable CAS outside the CAS executor.  The
     [Hazard_publish] span covers operand publication, the fence and the
     warning re-check — OA's fixed write-barrier overhead — and ends
     before the CAS itself, which any scheme pays. *)
  let cas ctx (d : R.cell Smr_intf.desc) =
    let t0 = Smr_intf.prof_enter ctx.prof Oa_obs.Phase.Hazard_publish in
    R.write ctx.hps.(0) (Ptr.unmark d.obj);
    if d.expected_is_ptr && not (Ptr.is_null d.expected) then
      R.write ctx.hps.(1) (Ptr.unmark d.expected);
    if d.new_is_ptr && not (Ptr.is_null d.new_value) then
      R.write ctx.hps.(2) (Ptr.unmark d.new_value);
    R.fence ();
    ctx.s_fences <- ctx.s_fences + 1;
    let w = R.read ctx.warning in
    if w land 1 = 1 then begin
      ignore (R.cas ctx.warning w (w land lnot 1));
      clear_write_hps ctx;
      ctx.s_restarts <- ctx.s_restarts + 1;
      Smr_intf.obs_incr ctx.o Oa_obs.Event.Rollback;
      Smr_intf.prof_leave ctx.prof Oa_obs.Phase.Hazard_publish t0;
      raise Smr_intf.Restart
    end;
    Smr_intf.prof_leave ctx.prof Oa_obs.Phase.Hazard_publish t0;
    let res = R.cas d.target d.expected d.new_value in
    clear_write_hps ctx;
    res

  module Owner = Smr_intf.Owner_slots (R)

  (* Algorithm 3: protect the CAS list from the end of the generator to the
     end of the wrap-up.  Duplicate objects are protected once; an empty
     list needs no fence and no check. *)
  let protect_descs ctx (cl : R.cell Smr_intf.cas_list) =
    if cl.len > 0 then begin
      let t0 = Smr_intf.prof_enter ctx.prof Oa_obs.Phase.Hazard_publish in
      let base = ctx.mm.cfg.Smr_intf.hp_slots in
      let used = Smr_intf.fold_operands Owner.protect ctx.hps base cl in
      ctx.owner_used <- used;
      if used > 0 then begin
        R.fence ();
        ctx.s_fences <- ctx.s_fences + 1;
        let w = R.read ctx.warning in
        if w land 1 = 1 then begin
          ignore (R.cas ctx.warning w (w land lnot 1));
          for j = 0 to used - 1 do
            R.write ctx.hps.(base + j) no_hp
          done;
          ctx.owner_used <- 0;
          ctx.s_restarts <- ctx.s_restarts + 1;
          Smr_intf.obs_incr ctx.o Oa_obs.Event.Rollback;
          Smr_intf.prof_leave ctx.prof Oa_obs.Phase.Hazard_publish t0;
          raise Smr_intf.Restart
        end
      end;
      Smr_intf.prof_leave ctx.prof Oa_obs.Phase.Hazard_publish t0
    end

  let clear_descs ctx =
    let base = ctx.mm.cfg.Smr_intf.hp_slots in
    for j = 0 to ctx.owner_used - 1 do
      R.write ctx.hps.(base + j) no_hp
    done;
    ctx.owner_used <- 0

  let on_restart ctx = clear_write_hps ctx

  (* --- The recycling mechanism (Algorithms 4-6). --- *)

  (* Help an in-flight phase swap and advance [local_ver] to the current
     even version.  The retired pool version is odd exactly while its
     frozen content is being transferred to the processing pool. *)
  let rec catch_up ctx =
    let mm = ctx.mm in
    let rs = VP.snapshot mm.retired in
    if rs.VP.ver >= ctx.local_ver + 2 then
      ctx.local_ver <- rs.VP.ver land lnot 1
    else begin
      if rs.VP.ver = ctx.local_ver then
        ignore
          (VP.cas_state mm.retired ~expected:rs
             { rs with VP.ver = ctx.local_ver + 1 });
      let rs1 = VP.snapshot mm.retired in
      if rs1.VP.ver = ctx.local_ver + 1 then begin
        let ps = VP.snapshot mm.processing in
        if ps.VP.ver = ctx.local_ver then
          ignore
            (VP.cas_state mm.processing ~expected:ps
               {
                 VP.chunks = rs1.VP.chunks @ ps.VP.chunks;
                 ver = ctx.local_ver + 2;
               });
        let rs2 = VP.snapshot mm.retired in
        if rs2.VP.ver = ctx.local_ver + 1 then
          ignore
            (VP.cas_state mm.retired ~expected:rs2
               { VP.chunks = []; ver = ctx.local_ver + 2 })
      end;
      catch_up ctx
    end

  let set_warnings mm target_ver =
    let rec bump (tctx : ctx) =
      let w = R.read tctx.warning in
      if w land lnot 1 < target_ver then
        if not (R.cas tctx.warning w (target_ver lor 1)) then bump tctx
    in
    List.iter bump (R.rread mm.registry)

  let collect_hps mm tbl =
    let scan (tctx : ctx) =
      Array.iter
        (fun slot ->
          let v = R.read slot in
          if v >= 0 then Hashtbl.replace tbl (Ptr.index v) ())
        tctx.hps
    in
    List.iter scan (R.rread mm.registry)

  (* Push a chunk of still-protected nodes back to the retired pool,
     catching up with any phase changes that race with us. *)
  let rec push_retired ctx chunk =
    match VP.push ctx.mm.retired ~ver:ctx.local_ver chunk with
    | `Ok -> Smr_intf.obs_incr ctx.o Oa_obs.Event.Pool_push
    | `Mismatch ->
        catch_up ctx;
        push_retired ctx chunk

  (* Algorithm 6. *)
  let recycle ctx =
    let tr = Smr_intf.prof_enter ctx.prof Oa_obs.Phase.Reclaim in
    let mm = ctx.mm in
    let cfg = mm.cfg in
    let before = ctx.local_ver in
    catch_up ctx;
    if ctx.local_ver = before + 2 then begin
      (* We are a processor of the current phase. *)
      ctx.s_phases <- ctx.s_phases + 1;
      Smr_intf.obs_incr ctx.o Oa_obs.Event.Phase_flip;
      set_warnings mm ctx.local_ver;
      R.fence ();
      ctx.s_fences <- ctx.s_fences + 1;
      let protected_tbl = Hashtbl.create 64 in
      Smr_intf.obs_incr ctx.o Oa_obs.Event.Hazard_scan;
      collect_hps mm protected_tbl;
      let phase_recycled = ref 0 in
      let ready_acc = ref (VP.make_chunk cfg.Smr_intf.chunk_size) in
      let keep_acc = ref (VP.make_chunk cfg.Smr_intf.chunk_size) in
      let flush_ready () =
        if not (VP.chunk_empty !ready_acc) then begin
          ctx.s_recycled <- ctx.s_recycled + (!ready_acc).VP.len;
          phase_recycled := !phase_recycled + (!ready_acc).VP.len;
          Smr_intf.obs_add ctx.o Oa_obs.Event.Reclaim (!ready_acc).VP.len;
          Smr_intf.obs_incr ctx.o Oa_obs.Event.Pool_push;
          VP.Plain.push mm.ready !ready_acc;
          ready_acc := VP.make_chunk cfg.Smr_intf.chunk_size
        end
      in
      let flush_keep () =
        if not (VP.chunk_empty !keep_acc) then begin
          push_retired ctx !keep_acc;
          keep_acc := VP.make_chunk cfg.Smr_intf.chunk_size
        end
      in
      let rec drain () =
        match VP.pop mm.processing ~ver:ctx.local_ver with
        | `Mismatch | `Empty -> ()
        | `Ok c ->
            Smr_intf.obs_incr ctx.o Oa_obs.Event.Pool_pop;
            for i = 0 to c.VP.len - 1 do
              let idx = c.VP.slots.(i) in
              if Hashtbl.mem protected_tbl idx then begin
                if VP.chunk_full !keep_acc then flush_keep ();
                VP.chunk_push !keep_acc idx
              end
              else begin
                if VP.chunk_full !ready_acc then flush_ready ();
                VP.chunk_push !ready_acc idx
              end
            done;
            drain ()
      in
      drain ();
      flush_ready ();
      flush_keep ();
      Smr_intf.obs_observe ctx.o "reclaim_batch" !phase_recycled
    end;
    Smr_intf.prof_leave ctx.prof Oa_obs.Phase.Reclaim tr

  (* Algorithm 5: allocation.  Local chunk, then the shared ready pool,
     then the bump region, then recycling. *)
  let global_recycled mm =
    List.fold_left (fun acc (c : ctx) -> acc + c.s_recycled) 0
      (R.rread mm.registry)

  let refill ctx =
    let mm = ctx.mm in
    let reclaim ~attempt =
      (* Under allocation pressure, drain our own partial retire chunk
         first: near the minimum arena slack (delta ~ 2 * threads * chunk,
         Figure 3) the nodes stranded in local pools are needed for the
         system to make progress. *)
      if attempt > 0 && not (VP.chunk_empty ctx.retire_chunk) then begin
        push_retired ctx ctx.retire_chunk;
        ctx.retire_chunk <- VP.make_chunk mm.cfg.Smr_intf.chunk_size
      end;
      let before = global_recycled mm in
      recycle ctx;
      global_recycled mm > before
    in
    VP.refill ?obs:ctx.o ~arena:mm.arena ~ready:mm.ready
      ~chunk_size:mm.cfg.Smr_intf.chunk_size ~reclaim ()

  let alloc ctx =
    let t0 = Smr_intf.prof_enter ctx.prof Oa_obs.Phase.Alloc in
    if VP.chunk_empty ctx.alloc_chunk then ctx.alloc_chunk <- refill ctx;
    let idx = VP.chunk_pop ctx.alloc_chunk in
    let p = Ptr.of_index idx in
    A.zero_node ctx.mm.arena p;
    ctx.s_allocs <- ctx.s_allocs + 1;
    Smr_intf.prof_leave ctx.prof Oa_obs.Phase.Alloc t0;
    p

  let dealloc ctx p =
    if VP.chunk_full ctx.alloc_chunk then begin
      Smr_intf.obs_incr ctx.o Oa_obs.Event.Pool_push;
      VP.Plain.push ctx.mm.ready ctx.alloc_chunk;
      ctx.alloc_chunk <- VP.make_chunk ctx.mm.cfg.Smr_intf.chunk_size
    end;
    VP.chunk_push ctx.alloc_chunk (Ptr.index (Ptr.unmark p))

  (* Algorithm 4.  The [Retire] span covers the buffer append and pool
     hand-off; a flush that races a phase swap recursing into [recycle]
     nests a [Reclaim] span inside it (rare; see {!Oa_obs.Profile}). *)
  let retire ctx p =
    let t0 = Smr_intf.prof_enter ctx.prof Oa_obs.Phase.Retire in
    ctx.s_retires <- ctx.s_retires + 1;
    Smr_intf.obs_incr ctx.o Oa_obs.Event.Retire;
    if VP.chunk_full ctx.retire_chunk then begin
      let rec flush () =
        match VP.push ctx.mm.retired ~ver:ctx.local_ver ctx.retire_chunk with
        | `Ok ->
            Smr_intf.obs_incr ctx.o Oa_obs.Event.Pool_push;
            ctx.retire_chunk <- VP.make_chunk ctx.mm.cfg.Smr_intf.chunk_size
        | `Mismatch ->
            recycle ctx;
            flush ()
      in
      flush ()
    end;
    VP.chunk_push ctx.retire_chunk (Ptr.index (Ptr.unmark p));
    Smr_intf.prof_leave ctx.prof Oa_obs.Phase.Retire t0

  (* Hand the local retire chunk to the retired pool, then run two phases:
     the first freezes the retired pool (including our chunk) into the
     processing pool, the second processes it.  Anything still hazard-
     protected stays pooled and is reported as in-flight by conservation
     accounting. *)
  let quiesce ctx =
    if not (VP.chunk_empty ctx.retire_chunk) then begin
      push_retired ctx ctx.retire_chunk;
      ctx.retire_chunk <- VP.make_chunk ctx.mm.cfg.Smr_intf.chunk_size
    end;
    recycle ctx;
    recycle ctx;
    (* elastic arenas: hand the recycled slots back to their chunks so
       fully-free chunks can return their pages to the OS *)
    VP.drain_ready ?obs:ctx.o ~arena:ctx.mm.arena ~ready:ctx.mm.ready ()

  let stats mm =
    List.fold_left
      (fun acc (c : ctx) ->
        Smr_intf.add_stats acc
          {
            Smr_intf.allocs = c.s_allocs;
            retires = c.s_retires;
            recycled = c.s_recycled;
            restarts = c.s_restarts;
            phases = c.s_phases;
            fences = c.s_fences;
          })
      Smr_intf.empty_stats (R.rread mm.registry)
end
