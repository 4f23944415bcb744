(** The no-reclamation baseline (the paper's [NoRecl]).

    Allocation bumps through the arena and retired nodes are never
    recycled, so the arena must be sized for the whole run:
    [prefill + total expected allocations].  All barriers are free, which
    makes this the baseline every other scheme's throughput is divided by
    in the paper's figures. *)

module Ptr = Oa_mem.Ptr

module Make (Rt : Oa_runtime.Runtime_intf.S) = struct
  module R = Rt
  module A = Oa_mem.Arena.Make (R)
  module VP = Oa_core.Versioned_pool.Make (R)

  type ctx = {
    mm : t;
    mutable alloc_chunk : VP.chunk;
    mutable s_allocs : int;
    mutable s_retires : int;
    o : Oa_obs.Recorder.t option;
    batch_hist : Oa_obs.Histogram.t option;
        (* resolved once so [run_batch] records without a name lookup *)
  }

  and t = {
    arena : A.t;
    cfg : Oa_core.Smr_intf.config;
    registry : ctx list R.rcell;
    obs : Oa_obs.Sink.t;
  }

  let name = "NoRecl"

  let create ?(obs = Oa_obs.Sink.disabled) arena cfg =
    { arena; cfg; registry = R.rcell []; obs }

  let set_successor _ _ = ()

  let register mm =
    let o = Oa_obs.Sink.register mm.obs in
    let ctx =
      {
        mm;
        alloc_chunk = VP.make_chunk 0;
        s_allocs = 0;
        s_retires = 0;
        o;
        batch_hist = Oa_core.Smr_intf.obs_histogram o "op_batch_amortized";
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

  (* No per-operation machinery at all: the batched path is the plain
     loop, recorded for the telemetry histogram like every scheme. *)
  let run_batch ctx n f =
    if n > 0 then begin
      Oa_core.Smr_intf.obs_hist ctx.batch_hist n;
      for i = 0 to n - 1 do
        f i
      done
    end

  let refill ctx =
    let mm = ctx.mm in
    let size = mm.cfg.Oa_core.Smr_intf.chunk_size in
    let rec go () =
      match VP.chunk_take mm.arena size with
      | Some c -> c
      | None ->
          (* nothing is ever reclaimed here, so the only recourse is to
             map more storage (elastic arenas; a fixed arena is simply
             undersized for the run) *)
          if A.grow mm.arena then begin
            Oa_core.Smr_intf.obs_incr ctx.o Oa_obs.Event.Mem_grow;
            go ()
          end
          else raise Oa_core.Smr_intf.Arena_exhausted
    in
    go ()

  let alloc ctx =
    if VP.chunk_empty ctx.alloc_chunk then ctx.alloc_chunk <- refill ctx;
    let idx = VP.chunk_pop ctx.alloc_chunk in
    let p = Ptr.of_index idx in
    A.zero_node ctx.mm.arena p;
    ctx.s_allocs <- ctx.s_allocs + 1;
    p

  let dealloc ctx p =
    if not (VP.chunk_full ctx.alloc_chunk) then
      VP.chunk_push ctx.alloc_chunk (Ptr.index (Ptr.unmark p))

  let retire ctx _ =
    ctx.s_retires <- ctx.s_retires + 1;
    Oa_core.Smr_intf.obs_incr ctx.o Oa_obs.Event.Retire

  let quiesce _ = ()
  let read_ptr _ ~hp:_ cell = R.read cell
  let read_data _ cell = R.read cell
  let protect_move _ ~hp:_ _ = ()
  let check _ = ()
  let cas _ (d : R.cell Oa_core.Smr_intf.desc) =
    R.cas d.target d.expected d.new_value
  let protect_descs _ _ = ()
  let clear_descs _ = ()
  let on_restart _ = ()

  let stats mm =
    List.fold_left
      (fun acc (c : ctx) ->
        Oa_core.Smr_intf.add_stats acc
          {
            Oa_core.Smr_intf.allocs = c.s_allocs;
            retires = c.s_retires;
            recycled = 0;
            restarts = 0;
            phases = 0;
            fences = 0;
          })
      Oa_core.Smr_intf.empty_stats (R.rread mm.registry)
end
