(** Driver for data structures in normalized form (Timnat & Petrank,
    PPoPP 2014; the paper's Section 3.2 and Appendix A).

    A normalized operation is three methods run in sequence:

    + the {e CAS generator} searches the structure and produces a list of
      CAS descriptors (it may also perform restartable auxiliary CASes,
      e.g. physical deletes, through {!Smr_intf.S.cas});
    + the {e CAS executor} — a fixed method, {!Make.execute} — attempts
      the descriptors one by one until the first failure;
    + the {e wrap-up} inspects how many CASes succeeded and either returns
      the operation's result or asks to start over from the generator.

    The generator and wrap-up are {e parallelizable} methods: restarting
    them from scratch at any point is harmless.  This is the roll-back
    mechanism optimistic access relies on: any barrier may raise
    {!Smr_intf.Restart} and the driver re-runs the current method.

    The driver allocates nothing.  Generator and wrap-up are functions of
    the structure's per-thread context and the operation's key, defined
    once per structure (not built per call); the generator appends its
    descriptors to the context's preallocated {!Smr_intf.cas_list}, and a
    wrap-up answers with an immediate [int].

    Relaxation, documented in DESIGN.md: generators leave an auxiliary
    value (e.g. the position a read-only search found) in mutable fields
    of the per-thread context, where the wrap-up reads it.  The paper's
    Listing 1 threads such data through the descriptor list itself; the
    side channel changes nothing about restartability because the
    auxiliary value is rewritten whenever the generator re-runs. *)

module Ptr = Oa_mem.Ptr

module Make (S : Smr_intf.S) = struct
  type desc = S.R.cell Smr_intf.desc
  type cas_list = S.R.cell Smr_intf.cas_list

  (** Index value meaning "no CAS failed" in the executor's output. *)
  let none_failed = -1

  (** A wrap-up's answer asking the driver to start over from the
      generator (Listing 1's RESTART_GENERATOR); any other value is the
      operation's result. *)
  let restart_generator = min_int

  (** A descriptor over pointer operands, targeting [target] until it is
      refilled; used to preallocate buffers. *)
  let desc target =
    {
      Smr_intf.obj = Ptr.null;
      target;
      expected = Ptr.null;
      new_value = Ptr.null;
      expected_is_ptr = true;
      new_is_ptr = true;
    }

  (** An empty CAS list with room for [capacity] descriptors, each
      initially targeting [target] (any cell of the structure). *)
  let cas_list ~capacity target =
    { Smr_intf.descs = Array.init capacity (fun _ -> desc target); len = 0 }

  (** Refill [d] as a CAS on pointer operands. *)
  let set (d : desc) ~obj ~target ~expected ~new_value =
    d.obj <- obj;
    d.target <- target;
    d.expected <- expected;
    d.new_value <- new_value;
    d.expected_is_ptr <- true;
    d.new_is_ptr <- true

  (** Append a CAS on pointer operands to [cl]. *)
  let push (cl : cas_list) ~obj ~target ~expected ~new_value =
    set cl.descs.(cl.len) ~obj ~target ~expected ~new_value;
    cl.len <- cl.len + 1

  let rec execute_from (descs : desc array) n i =
    if i >= n then none_failed
    else
      let d = Array.unsafe_get descs i in
      if S.R.cas d.target d.expected d.new_value then
        execute_from descs n (i + 1)
      else i

  (** The fixed CAS-executor method: attempts each descriptor in order,
      stopping at the first failure.  Returns the index of the failed CAS,
      or {!none_failed}.  Performs no barriers: every object it touches was
      protected by [protect_descs] at the end of the generator. *)
  let execute (cl : cas_list) =
    (* [len <= Array.length descs]: [push] is bounds-checked *)
    execute_from cl.descs cl.len 0

  (* The methods' restart loops.  [match ... with exception] keeps each
     retry outside the handler, so a method that rolls back repeatedly
     does not grow the stack. *)
  let rec generate sctx (cl : cas_list) generator c key =
    match
      cl.len <- 0;
      generator c key;
      S.protect_descs sctx cl
    with
    | () -> ()
    | exception Smr_intf.Restart ->
        S.on_restart sctx;
        generate sctx cl generator c key

  let rec wrap wrap_up c key failed =
    match wrap_up c key failed with
    | r -> r
    | exception Smr_intf.Restart -> wrap wrap_up c key failed

  let rec attempt sctx cl generator wrap_up c key =
    generate sctx cl generator c key;
    let failed = execute cl in
    let r = wrap wrap_up c key failed in
    S.clear_descs sctx;
    if r = restart_generator then attempt sctx cl generator wrap_up c key
    else r

  (** [run sctx cl generator wrap_up c key] executes one normalized
      operation on key [key] for the structure context [c].

      The driver empties [cl] before each generator run, and
      [generator c key] appends the operation's CAS list to it.
      [wrap_up c key failed] receives the executor's output ([failed = ]
      {!none_failed} when all CASes succeeded) and returns the result, or
      {!restart_generator}.  Either method may raise {!Smr_intf.Restart};
      the driver then re-runs that method from scratch, after clearing
      protection state as the scheme requires. *)
  let run sctx cl generator wrap_up c key =
    S.op_begin sctx;
    let r = attempt sctx cl generator wrap_up c key in
    S.op_end sctx;
    r
end
