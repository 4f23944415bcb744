(** Epoch-based reclamation (Fraser / Harris), the paper's [EBR] baseline.

    Each operation publishes the global epoch it observed together with an
    active bit, with a full fence — cheap for long operations, expensive
    for the hash table's very short ones, which is exactly the behaviour
    the paper's Figure 1 shows.  Retired nodes go to one of three limbo
    buckets; a bucket can be freed once the global epoch has advanced
    twice, which requires every active thread to have observed the current
    epoch.  EBR is {e not} lock-free: a stalled active thread blocks epoch
    advance and thus all reclamation (demonstrated by a failure-injection
    test). *)

module Ptr = Oa_mem.Ptr

module Make (Rt : Oa_runtime.Runtime_intf.S) = struct
  module R = Rt
  module A = Oa_mem.Arena.Make (R)
  module VP = Oa_core.Versioned_pool.Make (R)
  module I = Oa_core.Smr_intf

  type bucket = { mutable nodes : int array; mutable len : int; mutable epoch : int }

  type ctx = {
    mm : t;
    word : R.cell;  (* packed [epoch lsl 1 lor active] *)
    buckets : bucket array;  (* 3 limbo buckets, indexed epoch mod 3 *)
    mutable local_epoch : int;
    mutable ops : int;
    mutable in_batch : bool;  (* epoch announced for a whole [run_batch] *)
    mutable alloc_chunk : VP.chunk;
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
    epoch : R.cell;
    ready : VP.Plain.t;
    registry : ctx list R.rcell;
    obs : Oa_obs.Sink.t;
  }

  let name = "EBR"

  let create ?(obs = Oa_obs.Sink.disabled) arena cfg =
    {
      arena;
      cfg;
      epoch = R.cell 2;
      ready = VP.Plain.create ();
      registry = R.rcell [];
      obs;
    }

  let set_successor _ _ = ()

  let make_bucket () = { nodes = Array.make 64 (-1); len = 0; epoch = -1 }

  let register mm =
    let o = Oa_obs.Sink.register mm.obs in
    let ctx =
      {
        mm;
        word = R.cell 0;
        buckets = Array.init 3 (fun _ -> make_bucket ());
        local_epoch = 0;
        ops = 0;
        in_batch = false;
        alloc_chunk = VP.make_chunk mm.cfg.I.chunk_size;
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

  let push_free ctx idx =
    let mm = ctx.mm in
    if VP.chunk_full ctx.alloc_chunk then begin
      I.obs_incr ctx.o Oa_obs.Event.Pool_push;
      VP.Plain.push mm.ready ctx.alloc_chunk;
      ctx.alloc_chunk <- VP.make_chunk mm.cfg.I.chunk_size
    end;
    VP.chunk_push ctx.alloc_chunk idx

  (* Free every limbo bucket whose epoch is at least two behind. *)
  let free_old_buckets ctx epoch =
    let tr = I.prof_enter ctx.prof Oa_obs.Phase.Reclaim in
    Array.iter
      (fun (b : bucket) ->
        if b.epoch >= 0 && b.epoch <= epoch - 2 && b.len > 0 then begin
          I.obs_add ctx.o Oa_obs.Event.Reclaim b.len;
          I.obs_observe ctx.o "reclaim_batch" b.len;
          for i = 0 to b.len - 1 do
            ctx.s_recycled <- ctx.s_recycled + 1;
            push_free ctx b.nodes.(i)
          done;
          b.len <- 0;
          b.epoch <- -1
        end)
      ctx.buckets;
    I.prof_leave ctx.prof Oa_obs.Phase.Reclaim tr

  (* The [Epoch_announce] span covers the publish + fence; an epoch change
     additionally sweeps the limbo buckets, which times itself as
     [Reclaim] (nested, rare; see {!Oa_obs.Profile}). *)
  let announce ctx =
    let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Epoch_announce in
    (* Model the comparator's (Fraser's) heavier per-operation path; see
       Smr_intf.config.ebr_op_work. *)
    R.work ctx.mm.cfg.I.ebr_op_work;
    let e = R.read ctx.mm.epoch in
    R.write ctx.word ((e lsl 1) lor 1);
    R.fence ();
    ctx.s_fences <- ctx.s_fences + 1;
    I.prof_leave ctx.prof Oa_obs.Phase.Epoch_announce t0;
    if e <> ctx.local_epoch then begin
      ctx.local_epoch <- e;
      free_old_buckets ctx e
    end

  let op_begin ctx = if not ctx.in_batch then announce ctx
  let op_end ctx = if not ctx.in_batch then R.write ctx.word (ctx.local_epoch lsl 1)

  (* Batched execution: one epoch announcement (publish + fence + limbo
     sweep) covers the whole batch; the per-operation [op_begin]/[op_end]
     inside become no-ops.  The word stays active — and the observed epoch
     pinned — for the batch's duration, so epoch advance (and therefore
     reclamation) can be delayed by at most one batch; safety is untouched
     because pinning an epoch is exactly what a long operation does.  The
     word goes inactive again when the batch ends, even on an exceptional
     exit. *)
  let run_batch ctx n f =
    if n > 0 then begin
      let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Batch_overhead in
      I.obs_hist ctx.batch_hist n;
      I.prof_leave ctx.prof Oa_obs.Phase.Batch_overhead t0;
      announce ctx;
      ctx.in_batch <- true;
      (* hand-rolled Fun.protect: no closure allocations per batch; the
         word must go inactive even on an exceptional exit *)
      let finish () =
        ctx.in_batch <- false;
        R.write ctx.word (ctx.local_epoch lsl 1)
      in
      (try
         for i = 0 to n - 1 do
           f i
         done
       with e ->
         finish ();
         raise e);
      finish ()
    end

  (* Advance the global epoch if every active thread observed it. *)
  let try_advance ctx =
    let tr = I.prof_enter ctx.prof Oa_obs.Phase.Reclaim in
    let mm = ctx.mm in
    let e = R.read mm.epoch in
    let ok = ref true in
    List.iter
      (fun (t : ctx) ->
        let w = R.read t.word in
        if w land 1 = 1 && w asr 1 <> e then ok := false)
      (R.rread mm.registry);
    if !ok then begin
      if R.cas mm.epoch e (e + 1) then begin
        ctx.s_phases <- ctx.s_phases + 1;
        I.obs_incr ctx.o Oa_obs.Event.Phase_flip
      end
    end;
    I.prof_leave ctx.prof Oa_obs.Phase.Reclaim tr

  let retire ctx p =
    ctx.s_retires <- ctx.s_retires + 1;
    I.obs_incr ctx.o Oa_obs.Event.Retire;
    let b = ctx.buckets.(ctx.local_epoch mod 3) in
    (* Reusing a bucket whose epoch differs: its content is at least three
       epochs old (mod-3 indexing), hence safe to free now — attributed to
       [Reclaim], while the append below is [Retire], so a retire that
       drains a bucket does not distort the retire column. *)
    if b.epoch <> ctx.local_epoch then begin
      let tr = I.prof_enter ctx.prof Oa_obs.Phase.Reclaim in
      if b.len > 0 then begin
        I.obs_add ctx.o Oa_obs.Event.Reclaim b.len;
        I.obs_observe ctx.o "reclaim_batch" b.len;
        for i = 0 to b.len - 1 do
          ctx.s_recycled <- ctx.s_recycled + 1;
          push_free ctx b.nodes.(i)
        done
      end;
      b.len <- 0;
      b.epoch <- ctx.local_epoch;
      I.prof_leave ctx.prof Oa_obs.Phase.Reclaim tr
    end;
    let t0 = I.prof_enter ctx.prof Oa_obs.Phase.Retire in
    if b.len >= Array.length b.nodes then begin
      let bigger = Array.make (2 * Array.length b.nodes) (-1) in
      Array.blit b.nodes 0 bigger 0 b.len;
      b.nodes <- bigger
    end;
    b.nodes.(b.len) <- Ptr.index (Ptr.unmark p);
    b.len <- b.len + 1;
    I.prof_leave ctx.prof Oa_obs.Phase.Retire t0;
    ctx.ops <- ctx.ops + 1;
    if ctx.ops mod ctx.mm.cfg.I.epoch_threshold = 0 then try_advance ctx

  (* Three advance/sweep rounds age every limbo bucket past the two-epoch
     grace window; with all threads between operations (words inactive)
     each advance succeeds and the buckets drain completely. *)
  let quiesce ctx =
    for _ = 1 to 3 do
      try_advance ctx;
      let e = R.read ctx.mm.epoch in
      if e <> ctx.local_epoch then ctx.local_epoch <- e;
      free_old_buckets ctx ctx.local_epoch
    done;
    (* elastic arenas: return pooled free slots to their home chunks so
       fully-free chunks can shed their pages *)
    VP.drain_ready ?obs:ctx.o ~arena:ctx.mm.arena ~ready:ctx.mm.ready ()

  let read_ptr _ ~hp:_ cell = R.read cell
  let read_data _ cell = R.read cell
  let protect_move _ ~hp:_ _ = ()
  let check _ = ()
  let cas _ (d : R.cell I.desc) = R.cas d.target d.expected d.new_value
  let protect_descs _ _ = ()
  let clear_descs _ = ()
  let on_restart _ = ()

  let refill ctx =
    let mm = ctx.mm in
    let reclaim ~attempt:_ =
      (* Help the epoch along, then re-examine our limbo buckets; anything
         they release is routed through the ready pool.  If a stalled
         thread pins the epoch this makes no progress: EBR is not
         lock-free. *)
      try_advance ctx;
      let e = R.read mm.epoch in
      if e <> ctx.local_epoch then begin
        ctx.local_epoch <- e;
        R.write ctx.word ((e lsl 1) lor 1)
      end;
      let before = ctx.s_recycled in
      free_old_buckets ctx ctx.local_epoch;
      if not (VP.chunk_empty ctx.alloc_chunk) then begin
        VP.Plain.push mm.ready ctx.alloc_chunk;
        ctx.alloc_chunk <- VP.make_chunk mm.cfg.I.chunk_size
      end;
      ctx.s_recycled > before
    in
    VP.refill ?obs:ctx.o ~arena:mm.arena ~ready:mm.ready
      ~chunk_size:mm.cfg.I.chunk_size ~reclaim ()

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
            restarts = 0;
            phases = c.s_phases;
            fences = c.s_fences;
          })
      I.empty_stats (R.rread mm.registry)
  end
