(** Michael-Scott lock-free FIFO queue in normalized form — an extension
    beyond the paper's three structures, demonstrating that the
    optimistic-access machinery applies to any normalized data structure
    (the normalized-form paper of Timnat & Petrank uses this queue as its
    running example).

    The queue is the classic two-pointer design: [head] points at a dummy
    node whose successors hold the values; [tail] points at the last or
    second-to-last node.  Enqueue's CAS list is [link at tail; swing tail]
    — the operation succeeded as soon as the link CAS did, a failing swing
    is fixed by helpers.  Dequeue's single CAS advances [head]; the old
    dummy becomes unreachable to new operations and is properly retired in
    the wrap-up (before any barrier, so the retire happens exactly once).

    The [head] and [tail] pointers live outside the arena and are never
    reclaimed; CAS descriptors targeting them carry a null [obj], which the
    schemes' protection paths ignore while still protecting the node
    operands. *)

module Ptr = Oa_mem.Ptr

module Make (S : Oa_core.Smr_intf.S) = struct
  module R = S.R
  module A = Oa_mem.Arena.Make (S.R)
  module N = Oa_core.Normalized.Make (S)

  let f_value = 0
  let f_next = 1
  let n_fields = 2

  type t = { arena : A.t; smr : S.t; head : R.cell; tail : R.cell }

  (* Per-thread context and operation state, preallocated and refilled in
     place: the CAS-list buffer, a scratch descriptor for the helping
     tail swings (never a CAS-list slot), the enqueued node cached across
     generator restarts, and the value and old dummy a dequeue generator
     leaves for its wrap-up. *)
  type ctx = {
    t : t;
    sctx : S.ctx;
    cas : N.cas_list;
    scratch : N.desc;
    mutable node : Ptr.t;  (* null between operations *)
    mutable value : int;
    mutable old_head : Ptr.t;
  }

  let value_cell t p = A.field t.arena p f_value
  let next_cell t p = A.field t.arena p f_next

  let create ?obs ?(elastic = false) ?chunk_nodes ~capacity cfg =
    let arena =
      if elastic then A.create_elastic ?chunk_nodes ~n_fields ()
      else A.create ~capacity ~n_fields
    in
    let smr = S.create ?obs arena cfg in
    S.set_successor smr (fun p -> Ptr.unmark (R.read (A.field arena p f_next)));
    match A.bump_range arena 1 with
    | None -> raise Oa_core.Smr_intf.Arena_exhausted
    | Some idx ->
        let dummy = Ptr.of_index idx in
        R.write (A.field arena dummy f_next) Ptr.null;
        { arena; smr; head = R.cell dummy; tail = R.cell dummy }

  let register t =
    {
      t;
      sctx = S.register t.smr;
      cas = N.cas_list ~capacity:2 t.tail;
      scratch = N.desc t.tail;
      node = Ptr.null;
      value = 0;
      old_head = Ptr.null;
    }

  let smr t = t.smr

  (* Help a lagging tail forward (restartable auxiliary CAS). *)
  let swing_tail ctx ~tail ~next =
    N.set ctx.scratch ~obj:Ptr.null ~target:ctx.t.tail ~expected:tail
      ~new_value:(Ptr.unmark next);
    ignore (S.cas ctx.sctx ctx.scratch)

  let rec enqueue_position ctx =
    let t = ctx.t and sctx = ctx.sctx in
    let tail = S.read_ptr sctx ~hp:0 t.tail in
    let next = S.read_ptr sctx ~hp:1 (next_cell t tail) in
    if not (Ptr.is_null next) then begin
      swing_tail ctx ~tail ~next;
      enqueue_position ctx
    end
    else begin
      N.push ctx.cas ~obj:tail ~target:(next_cell t tail) ~expected:Ptr.null
        ~new_value:ctx.node;
      N.push ctx.cas ~obj:Ptr.null ~target:t.tail ~expected:tail
        ~new_value:ctx.node
    end

  let enqueue_gen ctx v =
    let t = ctx.t in
    if Ptr.is_null ctx.node then ctx.node <- S.alloc ctx.sctx;
    R.write (value_cell t ctx.node) v;
    R.write (next_cell t ctx.node) Ptr.null;
    enqueue_position ctx

  (* the operation took effect iff the link CAS (index 0) succeeded; a
     failed tail swing (index 1) is repaired by helpers *)
  let enqueue_wrap ctx _v failed =
    if failed = 0 then N.restart_generator
    else begin
      ctx.node <- Ptr.null;
      0
    end

  (** [enqueue ctx v] appends [v]; always succeeds. *)
  let enqueue ctx v =
    ignore (N.run ctx.sctx ctx.cas enqueue_gen enqueue_wrap ctx v)

  let rec dequeue_gen ctx _ =
    let t = ctx.t and sctx = ctx.sctx in
    let head = S.read_ptr sctx ~hp:0 t.head in
    let tail = S.read_data sctx t.tail in
    let next = S.read_ptr sctx ~hp:1 (next_cell t head) in
    if Ptr.is_null next then () (* empty: no CAS *)
    else if Ptr.equal head tail then begin
      (* tail lags behind a non-empty queue: help it forward *)
      swing_tail ctx ~tail ~next;
      dequeue_gen ctx 0
    end
    else begin
      let v = S.read_data sctx (value_cell t (Ptr.unmark next)) in
      S.check sctx;
      N.push ctx.cas ~obj:Ptr.null ~target:t.head ~expected:head
        ~new_value:next;
      ctx.value <- v;
      ctx.old_head <- head
    end

  let dequeue_wrap ctx _ failed =
    if ctx.cas.len = 0 then 0
    else if failed <> N.none_failed then N.restart_generator
    else begin
      (* the old dummy is now unreachable to new operations; retire it
         before any barrier so a wrap-up restart cannot repeat it *)
      S.retire ctx.sctx ctx.old_head;
      1
    end

  (** [dequeue ctx] removes and returns the oldest value, or [None] when
      the queue is empty.  The old dummy node is retired. *)
  let dequeue ctx =
    if N.run ctx.sctx ctx.cas dequeue_gen dequeue_wrap ctx 0 = 1 then
      Some ctx.value
    else None

  (* --- Quiescent helpers --- *)

  (** Values currently queued, oldest first. *)
  let to_list t =
    let rec go acc p =
      if Ptr.is_null p then List.rev acc
      else
        let u = Ptr.unmark p in
        go (R.read (value_cell t u) :: acc) (R.read (next_cell t u))
    in
    go [] (R.read (next_cell t (Ptr.unmark (R.read t.head))))

  (** Structural invariants: the head chain reaches tail and terminates
      within [limit] hops. *)
  let validate t ~limit =
    let tail = Ptr.unmark (R.read t.tail) in
    let rec go p hops seen_tail =
      if hops > limit then Error "queue does not terminate (cycle?)"
      else if Ptr.is_null p then
        if seen_tail then Ok () else Error "tail not reachable from head"
      else
        let u = Ptr.unmark p in
        go (R.read (next_cell t u)) (hops + 1) (seen_tail || Ptr.equal u tail)
    in
    go (R.read t.head) 0 false
end
