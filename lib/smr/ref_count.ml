(** Lock-free reference counting (Valois-style), the related-work baseline
    of the paper's Section 6.

    Each node has a reference counter and a lifecycle flag in side tables
    of the arena.  A pointer read increments the target's counter, then
    validates by re-reading the source cell (retrying on change), and
    releases the count previously held by the same hazard slot — at least
    two atomic read-modify-writes per pointer read, which is why the paper
    dismisses the approach as expensive; the [Extensions] section of the
    bench output shows exactly that.

    Correctness relies on {e type persistence} (the paper's citation [24]):
    counters survive reclamation, so a stale increment that lands after a
    node was freed is harmless — it is always paired with a decrement, and
    a node is only freed when its count is zero, so the count of a live
    node can never be driven negative.  A retired node is freed by whoever
    observes count zero, with a flag CAS ([`Retired] to [`Freed]) arbitrating
    between racing releasers and the retirer. *)

module Ptr = Oa_mem.Ptr

module Make (Rt : Oa_runtime.Runtime_intf.S) = struct
  module R = Rt
  module A = Oa_mem.Arena.Make (R)
  module VP = Oa_core.Versioned_pool.Make (R)
  module I = Oa_core.Smr_intf

  (* lifecycle flag values *)
  let live = 0
  let flag_retired = 1
  let freed = 2

  type ctx = {
    mm : t;
    held : int array;  (* node index held by each slot, -1 if none *)
    owner_held : int array;  (* counts acquired by protect_descs *)
    mutable owner_used : int;
    mutable alloc_chunk : VP.chunk;
    mutable s_allocs : int;
    mutable s_retires : int;
    mutable s_recycled : int;
    mutable s_fences : int;
    o : Oa_obs.Recorder.t option;
    batch_hist : Oa_obs.Histogram.t option;
        (* resolved once so [run_batch] records without a name lookup *)
  }

  and t = {
    arena : A.t;
    cfg : I.config;
    side : side R.rcell;
        (* per-node counters and lifecycle flags; swapped wholesale when
           the tables grow to cover an elastic arena's new chunks *)
    ready : VP.Plain.t;
    registry : ctx list R.rcell;
    obs : Oa_obs.Sink.t;
  }

  and side = {
    counts : R.cell array;  (* per-node reference counters, own lines *)
    flags : R.cell array;  (* per-node lifecycle flags *)
  }

  let name = "RC"

  let one_per_node n =
    let b = R.node_block ~nodes:n ~fields:1 in
    Array.init n (fun j -> R.node_cell b j 0)

  let create ?(obs = Oa_obs.Sink.disabled) arena cfg =
    let capacity = A.capacity arena in
    {
      arena;
      cfg;
      side =
        R.rcell
          { counts = one_per_node capacity; flags = one_per_node capacity };
      ready = VP.Plain.create ();
      registry = R.rcell [];
      obs;
    }

  (* The side tables must cover every index the arena can hand out.  An
     elastic arena grows, so the tables double behind the [side] rcell:
     [Array.append] copies the existing cell {e handles} into the new
     snapshot, meaning a counter is the same shared cell through every
     growth step (type persistence survives table growth exactly as it
     survives node recycling), and fresh cells start at 0 = count zero,
     [live] flag — the same initial state the fixed-size tables had.  A
     lost growth race leaks one carve; growth is rare and monotonic. *)
  let rec side_for mm idx =
    let s = R.rread mm.side in
    let n = Array.length s.counts in
    if idx < n then s
    else begin
      let add = max (idx + 1 - n) n in
      let grown =
        {
          counts = Array.append s.counts (one_per_node add);
          flags = Array.append s.flags (one_per_node add);
        }
      in
      ignore (R.rcas mm.side s grown);
      side_for mm idx
    end

  let count_cell mm idx = (side_for mm idx).counts.(idx)
  let flag_cell mm idx = (side_for mm idx).flags.(idx)

  let set_successor _ _ = ()

  let register mm =
    let nslots = mm.cfg.I.hp_slots in
    let o = Oa_obs.Sink.register mm.obs in
    let ctx =
      {
        mm;
        held = Array.make nslots (-1);
        owner_held = Array.make (3 * mm.cfg.I.max_cas) (-1);
        owner_used = 0;
        alloc_chunk = VP.make_chunk mm.cfg.I.chunk_size;
        s_allocs = 0;
        s_retires = 0;
        s_recycled = 0;
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

  let op_begin _ = ()
  let op_end _ = ()

  (* Reference counts are adjusted per read and freed eagerly; nothing is
     set up per operation, so the batched path is the plain loop. *)
  let run_batch ctx n f =
    if n > 0 then begin
      I.obs_hist ctx.batch_hist n;
      for i = 0 to n - 1 do
        f i
      done
    end

  let push_free ctx idx =
    let mm = ctx.mm in
    ctx.s_recycled <- ctx.s_recycled + 1;
    (* eager scheme: reclamation happens node-by-node at release time *)
    I.obs_incr ctx.o Oa_obs.Event.Reclaim;
    if VP.chunk_full ctx.alloc_chunk then begin
      I.obs_incr ctx.o Oa_obs.Event.Pool_push;
      VP.Plain.push mm.ready ctx.alloc_chunk;
      ctx.alloc_chunk <- VP.make_chunk mm.cfg.I.chunk_size
    end;
    VP.chunk_push ctx.alloc_chunk idx

  (* Try to free a retired node whose count reached zero; the flag CAS
     arbitrates between racing releasers. *)
  let try_free ctx idx =
    if
      R.read (flag_cell ctx.mm idx) = flag_retired
      && R.read (count_cell ctx.mm idx) = 0
      && R.cas (flag_cell ctx.mm idx) flag_retired freed
    then push_free ctx idx

  let release ctx idx =
    if idx >= 0 then begin
      let before = R.faa (count_cell ctx.mm idx) (-1) in
      if before = 1 then try_free ctx idx
    end

  let acquire ctx idx = ignore (R.faa (count_cell ctx.mm idx) 1)

  (* The RC read barrier: acquire the target, validate by re-reading the
     source cell, release what this slot held before. *)
  let rec hold_read ctx hp cell v =
    if Ptr.is_null v then begin
      release ctx ctx.held.(hp);
      ctx.held.(hp) <- -1;
      v
    end
    else
      let idx = Ptr.index (Ptr.unmark v) in
      if ctx.held.(hp) = idx then v
      else begin
        acquire ctx idx;
        let v' = R.read cell in
        if v' = v then begin
          release ctx ctx.held.(hp);
          ctx.held.(hp) <- idx;
          v
        end
        else begin
          release ctx idx;
          hold_read ctx hp cell v'
        end
      end

  let read_ptr ctx ~hp cell = hold_read ctx hp cell (R.read cell)

  let read_data _ cell = R.read cell

  let protect_move ctx ~hp p =
    if not (Ptr.is_null p) then begin
      let idx = Ptr.index (Ptr.unmark p) in
      if ctx.held.(hp) <> idx then begin
        (* already counted via another slot, so a bare acquire is safe *)
        acquire ctx idx;
        release ctx ctx.held.(hp);
        ctx.held.(hp) <- idx
      end
    end

  let check _ = ()
  let cas _ (d : R.cell I.desc) = R.cas d.target d.expected d.new_value

  (* [_base]: owner counts live in their own array, from index 0. *)
  let hold ctx _base used u =
    let idx = Ptr.index u in
    acquire ctx idx;
    ctx.owner_held.(used) <- idx;
    used + 1

  let protect_descs ctx cl = ctx.owner_used <- I.fold_operands hold ctx 0 cl

  let clear_descs ctx =
    for j = 0 to ctx.owner_used - 1 do
      release ctx ctx.owner_held.(j);
      ctx.owner_held.(j) <- -1
    done;
    ctx.owner_used <- 0

  let on_restart _ = ()

  let retire ctx p =
    ctx.s_retires <- ctx.s_retires + 1;
    I.obs_incr ctx.o Oa_obs.Event.Retire;
    let idx = Ptr.index (Ptr.unmark p) in
    R.write (flag_cell ctx.mm idx) flag_retired;
    R.fence ();
    ctx.s_fences <- ctx.s_fences + 1;
    try_free ctx idx

  (* Reclamation is eager (nodes free at release time), nothing buffers
     scheme-side — but on an elastic arena the shared ready pool is
     drained back to the chunks so fully-free ones shed their pages. *)
  let quiesce ctx =
    VP.drain_ready ?obs:ctx.o ~arena:ctx.mm.arena ~ready:ctx.mm.ready ()

  let refill ctx =
    let mm = ctx.mm in
    (* Reclamation is eager (nodes free at release time and flow into the
       ready pool), so there is no scan to run under pressure: releasing
       this thread's slot holds here would drop protection mid-operation.
       The retry loop picks up chunks as other threads release counts. *)
    VP.refill ?obs:ctx.o ~arena:mm.arena ~ready:mm.ready
      ~chunk_size:mm.cfg.I.chunk_size
      ~reclaim:(fun ~attempt:_ -> false)
      ()

  let alloc ctx =
    if VP.chunk_empty ctx.alloc_chunk then ctx.alloc_chunk <- refill ctx;
    let idx = VP.chunk_pop ctx.alloc_chunk in
    let p = Ptr.of_index idx in
    A.zero_node ctx.mm.arena p;
    (* the counter is NOT reset: stale acquire/release pairs may still be
       in flight and always cancel out; the flag returns to live *)
    R.write (flag_cell ctx.mm idx) live;
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
            restarts = 0;
            phases = 0;
            fences = c.s_fences;
          })
      I.empty_stats (R.rread mm.registry)
end
