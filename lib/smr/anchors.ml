(** Simplified "drop the anchor" (Braginsky, Kogan & Petrank, SPAA 2013),
    the paper's [Anchors] baseline.

    The real anchors scheme publishes a hazard pointer (the {e anchor})
    once per [K] reads and has an involved freeze/recovery protocol; the
    paper notes it was only ever designed for the linked list.  We
    reproduce its cost profile — roughly [1/K] of HP's fences on the read
    path, an expensive reclamation scan, and poor behaviour under
    contention — with a simplified but conservative reclamation rule.  A
    retired node is freed only when

    - it has been in the retired buffer across a full scan interval,
    - every thread has re-anchored (or was inactive) since the previous
      scan, and
    - it is not reachable within [K] successor steps of any current
      anchor, using a structure-provided successor function
      ({!Make.set_successor}).

    This is the scheme described in DESIGN.md; it preserves the measured
    shape of [3] without its full freezing machinery. *)

module Ptr = Oa_mem.Ptr

module Make (Rt : Oa_runtime.Runtime_intf.S) = struct
  module R = Rt
  module A = Oa_mem.Arena.Make (R)
  module VP = Oa_core.Versioned_pool.Make (R)
  module I = Oa_core.Smr_intf

  type retired_entry = { idx : int; stamp : int }

  type ctx = {
    mm : t;
    id : int;
    anchor : R.cell;
    word : R.cell;  (* packed [seq lsl 1 lor active] *)
    mutable seq : int;
    mutable reads : int;
    mutable retired : retired_entry array;
    mutable n_retired : int;
    mutable scan_count : int;
    mutable stalls : int;
        (* stall scans rolled back in the current operation; -1 between
           operations *)
    last_seqs : (int, int) Hashtbl.t;  (* thread id -> seq at previous scan *)
    mutable alloc_chunk : VP.chunk;
    mutable s_allocs : int;
    mutable s_retires : int;
    mutable s_recycled : int;
    mutable s_restarts : int;
    mutable s_phases : int;
    mutable s_fences : int;
    o : Oa_obs.Recorder.t option;
    batch_hist : Oa_obs.Histogram.t option;
        (* resolved once so [run_batch] records without a name lookup *)
  }

  and t = {
    arena : A.t;
    cfg : I.config;
    ready : VP.Plain.t;
    registry : ctx list R.rcell;
    next_id : R.cell;
    mutable successor : Ptr.t -> Ptr.t;
    mutable has_successor : bool;
    obs : Oa_obs.Sink.t;
  }

  let name = "Anchors"

  let create ?(obs = Oa_obs.Sink.disabled) arena cfg =
    {
      arena;
      cfg;
      ready = VP.Plain.create ();
      registry = R.rcell [];
      next_id = R.cell 0;
      successor = (fun _ -> Ptr.null);
      has_successor = false;
      obs;
    }

  (** Install the structure's successor function, used by the scan to
      protect up to [anchor_interval] nodes ahead of every anchor.  Must be
      set before any node can be freed past an anchor; reads the arena
      directly (safe: arena reads never fault). *)
  let set_successor mm f =
    mm.successor <- f;
    mm.has_successor <- true

  let no_hp = -1

  let register mm =
    let o = Oa_obs.Sink.register mm.obs in
    let ctx =
      {
        mm;
        id = R.faa mm.next_id 1;
        anchor = R.cell no_hp;
        word = R.cell 0;
        seq = 0;
        reads = 0;
        retired = Array.make (max 16 (2 * mm.cfg.I.retire_threshold)) { idx = -1; stamp = 0 };
        n_retired = 0;
        scan_count = 1;
        stalls = -1;
        last_seqs = Hashtbl.create 16;
        alloc_chunk = VP.make_chunk mm.cfg.I.chunk_size;
        s_allocs = 0;
        s_retires = 0;
        s_recycled = 0;
        s_restarts = 0;
        s_phases = 0;
        s_fences = 0;
        o;
        batch_hist = I.obs_histogram o "op_batch_amortized";
      }
    in
    let rec add () =
      let l = R.rread mm.registry in
      if not (R.rcas mm.registry l (ctx :: l)) then add ()
    in
    add ();
    ctx

  let bump_seq ctx active =
    ctx.seq <- ctx.seq + 1;
    R.write ctx.word ((ctx.seq lsl 1) lor (if active then 1 else 0))

  let op_begin ctx =
    ctx.reads <- 0;
    ctx.stalls <- 0;
    bump_seq ctx true

  let op_end ctx =
    R.write ctx.anchor no_hp;
    ctx.stalls <- -1;
    bump_seq ctx false

  (* Anchoring is interval-based within each operation (sequence number,
     anchor posts every [anchor_interval] reads), so there is no
     per-operation setup worth amortising: the batched path is the plain
     loop. *)
  let run_batch ctx n f =
    if n > 0 then begin
      I.obs_hist ctx.batch_hist n;
      for i = 0 to n - 1 do
        f i
      done
    end

  (* Post an anchor on [v] with HP-style validation against the source
     cell; [post_anchor] then accounts a new anchor interval. *)
  let rec anchor_on ctx cell v =
    if Ptr.is_null v then v
    else begin
      R.write ctx.anchor (Ptr.unmark v);
      R.fence ();
      ctx.s_fences <- ctx.s_fences + 1;
      let v' = R.read cell in
      if v' = v then v else anchor_on ctx cell v'
    end

  let post_anchor ctx cell v =
    let v = anchor_on ctx cell v in
    bump_seq ctx true;
    ctx.reads <- 0;
    v

  let read_ptr ctx ~hp:_ cell =
    let v = R.read cell in
    (* the per-read counter increment and threshold branch of [3] *)
    R.work 1;
    ctx.reads <- ctx.reads + 1;
    if ctx.reads >= ctx.mm.cfg.I.anchor_interval then post_anchor ctx cell v
    else v

  let read_data _ cell = R.read cell
  let protect_move _ ~hp:_ _ = ()
  let check _ = ()
  let cas _ (d : R.cell I.desc) = R.cas d.target d.expected d.new_value
  let protect_descs _ _ = ()
  let clear_descs _ = ()
  (* The only restart is a stall rollback ([refill]): the generator runs
     again from scratch holding no references, which is a new anchor
     interval. *)
  let on_restart ctx = bump_seq ctx true

  let scan ctx =
    let mm = ctx.mm in
    ctx.s_phases <- ctx.s_phases + 1;
    I.obs_incr ctx.o Oa_obs.Event.Hazard_scan;
    let threads = R.rread mm.registry in
    (* Snapshot thread states and decide whether the grace condition (all
       re-anchored or inactive since the previous scan) holds. *)
    let all_advanced = ref true in
    let anchors = ref [] in
    List.iter
      (fun (t : ctx) ->
        let w = R.read t.word in
        let seq = w asr 1 and active = w land 1 = 1 in
        let prev = Hashtbl.find_opt ctx.last_seqs t.id in
        (if active then
           match prev with
           | Some s when s = seq -> all_advanced := false
           | _ -> ());
        Hashtbl.replace ctx.last_seqs t.id seq;
        let a = R.read t.anchor in
        if a >= 0 then anchors := Ptr.index a :: !anchors)
      threads;
    (* Protect every node within [K] successor steps of an anchor. *)
    let protected_tbl = Hashtbl.create 64 in
    let k = mm.cfg.I.anchor_interval in
    List.iter
      (fun a ->
        Hashtbl.replace protected_tbl a ();
        if mm.has_successor then begin
          let p = ref (Ptr.of_index a) in
          (try
             for _ = 1 to k do
               let s = Ptr.unmark (mm.successor !p) in
               if Ptr.is_null s then raise Exit;
               Hashtbl.replace protected_tbl (Ptr.index s) ();
               p := s
             done
           with Exit -> ())
        end)
      !anchors;
    let free_acc = ref (VP.make_chunk mm.cfg.I.chunk_size) in
    let flush () =
      if not (VP.chunk_empty !free_acc) then begin
        I.obs_add ctx.o Oa_obs.Event.Reclaim (!free_acc).VP.len;
        I.obs_incr ctx.o Oa_obs.Event.Pool_push;
        VP.Plain.push mm.ready !free_acc;
        free_acc := VP.make_chunk mm.cfg.I.chunk_size
      end
    in
    let kept = ref 0 in
    let freed = ref 0 in
    for i = 0 to ctx.n_retired - 1 do
      let e = ctx.retired.(i) in
      let freeable =
        !all_advanced && e.stamp < ctx.scan_count
        && not (Hashtbl.mem protected_tbl e.idx)
      in
      if freeable then begin
        ctx.s_recycled <- ctx.s_recycled + 1;
        incr freed;
        if VP.chunk_full !free_acc then flush ();
        VP.chunk_push !free_acc e.idx
      end
      else begin
        ctx.retired.(!kept) <- e;
        incr kept
      end
    done;
    flush ();
    I.obs_observe ctx.o "reclaim_batch" !freed;
    ctx.n_retired <- !kept;
    ctx.scan_count <- ctx.scan_count + 1

  let retire ctx p =
    ctx.s_retires <- ctx.s_retires + 1;
    I.obs_incr ctx.o Oa_obs.Event.Retire;
    if ctx.n_retired >= Array.length ctx.retired then begin
      let bigger =
        Array.make (2 * Array.length ctx.retired) { idx = -1; stamp = 0 }
      in
      Array.blit ctx.retired 0 bigger 0 ctx.n_retired;
      ctx.retired <- bigger
    end;
    ctx.retired.(ctx.n_retired) <-
      { idx = Ptr.index (Ptr.unmark p); stamp = ctx.scan_count };
    ctx.n_retired <- ctx.n_retired + 1;
    if ctx.n_retired >= ctx.mm.cfg.I.retire_threshold then scan ctx

  (* Two scans: the first records current anchor sequence numbers, the
     second observes every inactive thread as unchanged-but-idle and frees
     all nodes retired before it. *)
  let quiesce ctx =
    if ctx.n_retired > 0 then begin
      scan ctx;
      scan ctx
    end;
    (* elastic arenas: return pooled free slots to their home chunks so
       fully-free chunks can shed their pages *)
    VP.drain_ready ?obs:ctx.o ~arena:ctx.mm.arena ~ready:ctx.mm.ready ()

  (* A stall scan that frees nothing is waiting on an active thread that
     has not moved its [seq] since the previous scan — and a thread
     stalled here is such a thread: it cannot end its operation until the
     allocation succeeds.  Alone, it blocks its own grace period forever;
     several stalled at once block each other's.  So a fruitless stall
     scan rolls the caller's operation back: the restarted generator
     holds no references, [on_restart] moves [seq], and the next scans
     (the caller's and everyone else's) can free.  Bounded per operation,
     so an arena that is genuinely too small still ends in
     [Arena_exhausted].

     The thread whose unmoved [seq] the scan found may simply be
     descheduled on an oversubscribed host, and back-to-back rollbacks
     spend the whole budget in well under one OS timeslice; after that
     the stalled threads block each other's grace periods for good.  So
     each fruitless stall scan first spins an escalating number of
     [cpu_relax] hints, letting the budget span timeslices of wall time
     as {!Oa_core.Versioned_pool.refill}'s does.  [cpu_relax] is a no-op
     on the sim backend, so simulated runs are unchanged. *)
  let max_stall_rollbacks = 64

  let stall_backoff stalls =
    for _ = 1 to min (4_096 * (stalls + 1)) 65_536 do
      R.cpu_relax ()
    done

  let refill ctx =
    let mm = ctx.mm in
    VP.refill ?obs:ctx.o ~arena:mm.arena ~ready:mm.ready
      ~chunk_size:mm.cfg.I.chunk_size
      ~reclaim:(fun ~attempt:_ ->
        let before = ctx.s_recycled in
        scan ctx;
        if ctx.s_recycled > before then true
        else if ctx.stalls >= 0 && ctx.stalls < max_stall_rollbacks then begin
          stall_backoff ctx.stalls;
          ctx.stalls <- ctx.stalls + 1;
          ctx.s_restarts <- ctx.s_restarts + 1;
          I.obs_incr ctx.o Oa_obs.Event.Rollback;
          raise I.Restart
        end
        else false)
      ()

  let alloc ctx =
    if VP.chunk_empty ctx.alloc_chunk then ctx.alloc_chunk <- refill ctx;
    let idx = VP.chunk_pop ctx.alloc_chunk in
    let p = Ptr.of_index idx in
    A.zero_node ctx.mm.arena p;
    ctx.s_allocs <- ctx.s_allocs + 1;
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
            restarts = c.s_restarts;
            phases = c.s_phases;
            fences = c.s_fences;
          })
      I.empty_stats (R.rread mm.registry)
end
