(** Harris-Michael lock-free linked list (Michael, SPAA 2002) in the
    normalized form of the paper's Section 3.4 / Appendix C.

    An ordered set of integer keys.  Nodes have two fields, [key] and
    [next]; the mark bit of the [next] field logically deletes its node.
    Traversals physically unlink marked nodes (a restartable auxiliary CAS
    of the generator method, Listing 1) and [retire] them — the paper's
    proper-retire point.  Deletion generates a single CAS that marks the
    victim's [next] field; the wrap-up interprets an empty CAS list as
    "key absent" and a failed CAS as "restart from the generator", exactly
    as in Listing 1.

    The list is also the building block of {!Hash_table}: every operation
    takes the list head explicitly.  A head is a bare word holding the
    first pointer — not a sentinel node — so a table packs eight bucket
    heads to a cache line; a standalone list's head is a one-node block. *)

module Ptr = Oa_mem.Ptr

module Make (S : Oa_core.Smr_intf.S) = struct
  module R = S.R
  module A = Oa_mem.Arena.Make (S.R)
  module N = Oa_core.Normalized.Make (S)

  let f_key = 0
  let f_next = 1
  let n_fields = 2

  type t = { arena : A.t; smr : S.t; head : R.cell }
  type ctx = { t : t; sctx : S.ctx }

  let key_cell t p = A.field t.arena p f_key
  let next_cell t p = A.field t.arena p f_next

  (** Successor function for the Anchors scheme's protection walk: a raw
      arena read, safe even on recycled nodes. *)
  let successor_of arena p = Ptr.unmark (R.read (A.field arena p f_next))

  (** Build a list on a caller-provided arena and SMR instance, with its
      first pointer in [head], which the caller has set to {!Ptr.null};
      used by {!Hash_table} to share one arena across buckets. *)
  let on_arena arena smr ~head =
    S.set_successor smr (successor_of arena);
    { arena; smr; head }

  let create ?obs ?(elastic = false) ?chunk_nodes ~capacity cfg =
    let arena =
      if elastic then A.create_elastic ?chunk_nodes ~n_fields ()
      else A.create ~capacity ~n_fields
    in
    let smr = S.create ?obs arena cfg in
    let head = R.node_cell (R.node_block ~nodes:1 ~fields:1) 0 0 in
    R.write head Ptr.null;
    on_arena arena smr ~head

  let register t = { t; sctx = S.register t.smr }
  let quiesce ctx = S.quiesce ctx.sctx
  let smr t = t.smr
  let arena t = t.arena
  let head t = t.head

  let successor t p = successor_of t.arena p

  (* Result of the search loop of the generator: the position where [key]
     belongs.  [prev_next] is the cell holding [cur] — [prev]'s next
     field, or the list head while [prev] is null; [prev] is protected
     when non-null.  [cur] is the first unmarked node with key >= [key]
     (or null), [next] is [cur]'s unmarked successor value as read. *)
  type position = {
    prev : Ptr.t;  (* null while [cur] hangs off the head *)
    prev_next : R.cell;
    cur : Ptr.t;  (* unmarked; null when the tail was reached *)
    cur_key : int;  (* meaningless when [cur] is null *)
    next : int;  (* raw value of cur.next, unmarked by the break condition *)
  }

  (* The search of Listing 1 / Listing 5, with hazard-slot rotation for
     HP-style schemes: slots [s_prev], [s_cur], [s_next] rotate through
     the roles prev / cur / next.  Physical deletes of marked nodes happen
     here (restartable), followed by the proper [retire].  An unlink at
     the head has a null [obj]: the head is not a node, so no scheme
     protects it (every [protect]/[hold] skips null, every scan ignores
     negative hazard values). *)
  let search ctx ~head key =
    let t = ctx.t and sctx = ctx.sctx in
    let rec start () =
      step ~s_prev:1 ~s_cur:0 ~s_next:2 Ptr.null head
        (S.read_ptr sctx ~hp:0 head)
    and step ~s_prev ~s_cur ~s_next prev prev_next cur =
      if Ptr.is_null cur then
        { prev; prev_next; cur = Ptr.null; cur_key = 0; next = Ptr.null }
      else begin
        let curp = Ptr.unmark cur in
        let cur_next = next_cell t curp in
        (* The three reads are independent; the barrier of the last one
           (read_ptr's check) covers all of them — the paper's batched
           reads optimization, one check per node as in Listing 5. *)
        let cur_key = S.read_data sctx (key_cell t curp) in
        let tmp = S.read_data sctx prev_next in
        let next = S.read_ptr sctx ~hp:s_next cur_next in
        if tmp <> cur then start ()
        else if not (Ptr.is_marked next) then
          if cur_key >= key then { prev; prev_next; cur = curp; cur_key; next }
          else
            (* advance: prev <- cur <- next *)
            step ~s_prev:s_cur ~s_cur:s_next ~s_next:s_prev curp cur_next next
        else begin
          (* [curp] is logically deleted: physically unlink it. *)
          let unmarked_next = Ptr.unmark next in
          let ok =
            S.cas sctx
              {
                S.obj = prev;
                target = prev_next;
                expected = cur;
                new_value = unmarked_next;
                expected_is_ptr = true;
                new_is_ptr = true;
              }
          in
          if ok then begin
            S.retire sctx curp;
            (* prev keeps its slot; the value read into s_next becomes
               cur, freeing the old cur slot. *)
            step ~s_prev ~s_cur:s_next ~s_next:s_cur prev prev_next
              unmarked_next
          end
          else start ()
        end
      end
    in
    start ()

  let no_descs : S.desc array = [||]

  (** [contains ctx key] — wait-free in the original algorithm; a pure
      generator with an empty CAS list here. *)
  let contains_at ctx ~head key =
    let generator () =
      let pos = search ctx ~head key in
      (no_descs, (not (Ptr.is_null pos.cur)) && pos.cur_key = key)
    in
    let wrap_up ~descs:_ ~failed:_ found = N.Finish found in
    N.run_op ctx.sctx ~generator ~wrap_up

  (** [insert ctx key] adds [key]; false if already present.  The node is
      allocated once and reused across generator restarts; if the key turns
      out to be present the node returns to the allocator. *)
  let insert_at ctx ~head key =
    let t = ctx.t and sctx = ctx.sctx in
    let node = ref Ptr.null in
    let generator () =
      let pos = search ctx ~head key in
      if (not (Ptr.is_null pos.cur)) && pos.cur_key = key then begin
        if not (Ptr.is_null !node) then begin
          S.dealloc sctx !node;
          node := Ptr.null
        end;
        (no_descs, false)
      end
      else begin
        if Ptr.is_null !node then node := S.alloc sctx;
        R.write (key_cell t !node) key;
        R.write (next_cell t !node) pos.cur;
        let d =
          {
            S.obj = pos.prev;
            target = pos.prev_next;
            expected = pos.cur;
            new_value = !node;
            expected_is_ptr = true;
            new_is_ptr = true;
          }
        in
        ([| d |], true)
      end
    in
    let wrap_up ~descs:_ ~failed attempted =
      if not attempted then N.Finish false
      else if failed = N.none_failed then N.Finish true
      else N.Restart_generator
    in
    N.run_op sctx ~generator ~wrap_up

  (** [delete ctx key] logically deletes the node holding [key] by marking
      its [next] field (Listing 1); physical unlinking is left to later
      traversals.  False if the key is absent. *)
  let delete_at ctx ~head key =
    let t = ctx.t in
    let generator () =
      let pos = search ctx ~head key in
      if Ptr.is_null pos.cur || pos.cur_key <> key then (no_descs, ())
      else
        let d =
          {
            S.obj = pos.cur;
            target = next_cell t pos.cur;
            expected = pos.next;
            new_value = Ptr.mark pos.next;
            expected_is_ptr = true;
            new_is_ptr = true;
          }
        in
        ([| d |], ())
    in
    let wrap_up ~descs ~failed () =
      if Array.length descs = 0 then N.Finish false
      else if failed = N.none_failed then N.Finish true
      else N.Restart_generator
    in
    N.run_op ctx.sctx ~generator ~wrap_up

  let contains ctx key = contains_at ctx ~head:ctx.t.head key
  let insert ctx key = insert_at ctx ~head:ctx.t.head key
  let delete ctx key = delete_at ctx ~head:ctx.t.head key

  (* Batched execution through the scheme's amortised path (see
     Smr_intf.run_batch); each thunk must be a complete operation on this
     context. *)
  let run_batch ctx n f = S.run_batch ctx.sctx n f

  (* --- Raw (quiescent) helpers for prefilling and validation; these read
     the arena directly and must not race with running operations. --- *)

  (** Unmarked keys currently in the list, in traversal order. *)
  let to_list_from t ~head =
    let rec go acc p =
      if Ptr.is_null p then List.rev acc
      else
        let u = Ptr.unmark p in
        let next = R.read (next_cell t u) in
        let acc =
          if Ptr.is_marked next then acc else R.read (key_cell t u) :: acc
        in
        go acc next
    in
    go [] (R.read head)

  let to_list t = to_list_from t ~head:t.head

  (** Check structural invariants from [head]: strictly increasing keys
      over unmarked nodes and termination within [limit] hops. *)
  let validate_from t ~head ~limit =
    let rec go last p hops =
      if hops > limit then Error "list does not terminate (cycle?)"
      else if Ptr.is_null p then Ok ()
      else
        let u = Ptr.unmark p in
        let next = R.read (next_cell t u) in
        if Ptr.is_marked next then go last next (hops + 1)
        else
          let k = R.read (key_cell t u) in
          if k <= last then Error (Printf.sprintf "keys not increasing: %d after %d" k last)
          else go k next (hops + 1)
    in
    go min_int (R.read head) 0

  let validate t ~limit = validate_from t ~head:t.head ~limit
end
