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

    The list is also the building block of {!Hash_table}: the [_in]
    operations take the bucket whose chain they run on.  A head is a bare
    word holding the first pointer — not a sentinel node — so a table
    packs eight bucket heads to a cache line; a standalone list has one
    head, bucket 0.

    Operations allocate nothing on the OCaml heap: they run on the
    {!Oa_core.Normalized} driver with their descriptors and search
    position in preallocated buffers of the per-thread context. *)

module Ptr = Oa_mem.Ptr

module Make (S : Oa_core.Smr_intf.S) = struct
  module R = S.R
  module A = Oa_mem.Arena.Make (S.R)
  module N = Oa_core.Normalized.Make (S)

  let f_key = 0
  let f_next = 1
  let n_fields = 2

  type t = { arena : A.t; smr : S.t; heads : R.block }

  (* The per-thread context doubles as the operation's working state: the
     CAS-list buffer and a scratch descriptor for the search's unlink CAS
     are allocated once here and refilled in place, and the search writes
     the position it found into mutable immediate fields, so an operation
     allocates nothing.  The scratch descriptor is never a CAS-list slot,
     so an auxiliary CAS cannot overwrite a descriptor the generator has
     already appended. *)
  type ctx = {
    t : t;
    sctx : S.ctx;
    cas : N.cas_list;  (* at most one descriptor *)
    unlink : N.desc;
    mutable bucket : int;  (* head of the running operation's chain *)
    (* Position found by [search]: [cur] is the first unmarked node with
       key >= the searched key (null at the tail), [prev] its
       predecessor (null while [cur] hangs off the head, protected when
       non-null), [next] the raw value of cur.next, unmarked by the break
       condition. *)
    mutable prev : Ptr.t;
    mutable cur : Ptr.t;
    mutable cur_key : int;  (* meaningless when [cur] is null *)
    mutable next : int;
    mutable node : Ptr.t;
        (* [insert]'s node, allocated once and reused across generator
           restarts; null between operations *)
  }

  let key_cell t p = A.field t.arena p f_key
  let next_cell t p = A.field t.arena p f_next

  (* Bucket [b]'s head: word [b land 7] of head line [b lsr 3] of the
     [heads] block — a bucket head is a bare word holding the chain's
     first pointer, eight to a 64-byte line.  A standalone list has one
     head, bucket 0. *)
  let head_cell heads b = R.node_cell heads (b lsr 3) (b land 7)

  (** Successor function for the Anchors scheme's protection walk: a raw
      arena read, safe even on recycled nodes. *)
  let successor_of arena p = Ptr.unmark (R.read (A.field arena p f_next))

  (** Build a list on a caller-provided arena and SMR instance, with its
      chains' first pointers in the words of [heads] (see [head_cell]),
      which the caller has set to {!Ptr.null}; used by {!Hash_table} to
      share one arena across buckets. *)
  let on_arena arena smr ~heads =
    S.set_successor smr (successor_of arena);
    { arena; smr; heads }

  let create ?obs ?(elastic = false) ?chunk_nodes ~capacity cfg =
    let arena =
      if elastic then A.create_elastic ?chunk_nodes ~n_fields ()
      else A.create ~capacity ~n_fields
    in
    let smr = S.create ?obs arena cfg in
    let heads = R.node_block ~nodes:1 ~fields:1 in
    R.write (head_cell heads 0) Ptr.null;
    on_arena arena smr ~heads

  let register t =
    let head = head_cell t.heads 0 in
    {
      t;
      sctx = S.register t.smr;
      cas = N.cas_list ~capacity:1 head;
      unlink = N.desc head;
      bucket = 0;
      prev = Ptr.null;
      cur = Ptr.null;
      cur_key = 0;
      next = Ptr.null;
      node = Ptr.null;
    }

  let quiesce ctx = S.quiesce ctx.sctx
  let smr t = t.smr
  let arena t = t.arena
  let bucket_head t b = head_cell t.heads b
  let head t = bucket_head t 0

  let successor t p = successor_of t.arena p

  (* The search of Listing 1 / Listing 5, with hazard-slot rotation for
     HP-style schemes: slots [s_prev], [s_cur], [s_next] rotate through
     the roles prev / cur / next, and [prev_next] is the cell holding
     [cur] — [prev]'s next field, or the chain's head while [prev] is
     null.  Physical deletes of marked nodes happen here (restartable),
     followed by the proper [retire].  An unlink at the head has a null
     [obj]: the head is not a node, so no scheme protects it (every
     [protect]/[hold] skips null, every scan ignores negative hazard
     values).  Searches the chain of bucket [c.bucket], writes the
     position into [c] and returns its [prev_next] cell — a cell in a
     mutable field would cost a write barrier per search, and only
     [insert] needs it. *)
  let rec search_from c key s_prev s_cur s_next prev prev_next cur =
    if Ptr.is_null cur then begin
      c.prev <- prev;
      c.cur <- Ptr.null;
      c.cur_key <- 0;
      c.next <- Ptr.null;
      prev_next
    end
    else begin
      let t = c.t and sctx = c.sctx in
      let curp = Ptr.unmark cur in
      let cur_next = next_cell t curp in
      (* The three reads are independent; the barrier of the last one
         (read_ptr's check) covers all of them — the paper's batched
         reads optimization, one check per node as in Listing 5. *)
      let cur_key = S.read_data sctx (key_cell t curp) in
      let tmp = S.read_data sctx prev_next in
      let next = S.read_ptr sctx ~hp:s_next cur_next in
      if tmp <> cur then search c key
      else if not (Ptr.is_marked next) then
        if cur_key >= key then begin
          c.prev <- prev;
          c.cur <- curp;
          c.cur_key <- cur_key;
          c.next <- next;
          prev_next
        end
        else
          (* advance: prev <- cur <- next *)
          search_from c key s_cur s_next s_prev curp cur_next next
      else begin
        (* [curp] is logically deleted: physically unlink it. *)
        let unmarked_next = Ptr.unmark next in
        N.set c.unlink ~obj:prev ~target:prev_next ~expected:cur
          ~new_value:unmarked_next;
        if S.cas sctx c.unlink then begin
          S.retire sctx curp;
          (* prev keeps its slot; the value read into s_next becomes
             cur, freeing the old cur slot. *)
          search_from c key s_prev s_next s_cur prev prev_next unmarked_next
        end
        else search c key
      end
    end

  and search c key =
    let head = head_cell c.t.heads c.bucket in
    search_from c key 1 0 2 Ptr.null head (S.read_ptr c.sctx ~hp:0 head)

  let found c key = (not (Ptr.is_null c.cur)) && c.cur_key = key

  (* [contains] — wait-free in the original algorithm; a pure generator
     with an empty CAS list here. *)
  let contains_gen c key = ignore (search c key)
  let contains_wrap c key _failed = Bool.to_int (found c key)

  (* [insert]: if the key turns out to be present the cached node returns
     to the allocator. *)
  let insert_gen c key =
    let t = c.t in
    let prev_next = search c key in
    if found c key then begin
      if not (Ptr.is_null c.node) then begin
        S.dealloc c.sctx c.node;
        c.node <- Ptr.null
      end
    end
    else begin
      if Ptr.is_null c.node then c.node <- S.alloc c.sctx;
      R.write (key_cell t c.node) key;
      R.write (next_cell t c.node) c.cur;
      N.push c.cas ~obj:c.prev ~target:prev_next ~expected:c.cur
        ~new_value:c.node
    end

  (* An empty CAS list means "key present"; a failed link restarts. *)
  let insert_wrap c _key failed =
    if c.cas.len = 0 then 0
    else if failed = N.none_failed then begin
      c.node <- Ptr.null;
      1
    end
    else N.restart_generator

  (* [delete]: one CAS marking the victim's next field (Listing 1). *)
  let delete_gen c key =
    ignore (search c key);
    if found c key then
      N.push c.cas ~obj:c.cur ~target:(next_cell c.t c.cur) ~expected:c.next
        ~new_value:(Ptr.mark c.next)

  let delete_wrap c _key failed =
    if c.cas.len = 0 then 0
    else if failed = N.none_failed then 1
    else N.restart_generator

  let run c ~bucket gen wrap key =
    c.bucket <- bucket;
    N.run c.sctx c.cas gen wrap c key = 1

  (** [contains_in ctx ~bucket key] etc. run the operation on the chain
      headed by bucket [bucket] (see [on_arena]). *)
  let contains_in c ~bucket key = run c ~bucket contains_gen contains_wrap key

  (** [insert] adds [key]; false if already present.  The node is
      allocated once and reused across generator restarts. *)
  let insert_in c ~bucket key = run c ~bucket insert_gen insert_wrap key

  (** [delete] logically deletes the node holding [key] by marking its
      [next] field (Listing 1); physical unlinking is left to later
      traversals.  False if the key is absent. *)
  let delete_in c ~bucket key = run c ~bucket delete_gen delete_wrap key

  let contains ctx key = contains_in ctx ~bucket:0 key
  let insert ctx key = insert_in ctx ~bucket:0 key
  let delete ctx key = delete_in ctx ~bucket:0 key

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

  let to_list t = to_list_from t ~head:(head t)

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

  let validate t ~limit = validate_from t ~head:(head t) ~limit
end
