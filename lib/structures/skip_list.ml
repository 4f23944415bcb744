(** Herlihy-Shavit lock-free skip list ("The Art of Multiprocessor
    Programming", ch. 14) in normalized form.

    An ordered set of integer keys.  Nodes carry a key, a level, an
    unlink counter and [max_level] next fields; the mark bit of
    [next.(lvl)] logically deletes the node at that level.  As the paper
    describes (Section 5), the delete generator emits up to [level + 1]
    CASes that mark the victim's next fields top-down — the bottom-level
    mark is the linearization point — and the wrap-up restarts the
    generator when any CAS fails.  Insertion links the bottom level through
    the CAS executor (the linearization point) and links the upper levels
    in the wrap-up with restartable protected CASes.

    Physical unlinking happens inside [find] (a restartable auxiliary CAS),
    which also counts, per node, how many of its levels have been unlinked;
    the unlink that completes the count retires the node — only then is it
    unreachable from every level, making the retire {e proper}.  The
    counter is updated with a raw fetch-and-add, which is safe because a
    node cannot have been retired before its count is complete.

    Hazard-slot layout (HP-style schemes): slots [0..max_level-1] park the
    per-level predecessors, [max_level..2*max_level-1] the per-level
    successors, and three rotating slots serve the traversal — the paper's
    [2*MAXLEN + 3] hazard pointers. *)

module Ptr = Oa_mem.Ptr

module Make (S : Oa_core.Smr_intf.S) = struct
  module R = S.R
  module A = Oa_mem.Arena.Make (S.R)
  module N = Oa_core.Normalized.Make (S)

  let max_level = 16
  let f_key = 0
  let f_level = 1
  let f_count = 2
  let f_next = 3
  let n_fields = f_next + max_level

  (** Slots expected by this structure; pass to {!Oa_core.Smr_intf.config}:
      [hp_slots = hp_slots_needed] and [max_cas = max_cas_needed]. *)
  let hp_slots_needed = (2 * max_level) + 3

  let max_cas_needed = max_level + 1

  let s_rot0 = 2 * max_level
  let p_slot lvl = lvl
  let s_slot lvl = max_level + lvl

  type t = {
    arena : A.t;
    smr : S.t;
    head : Ptr.t;
    head_next : R.cell;
        (* the head's level-0 next field, computed once at creation: a
           cell to initialise descriptor buffers with *)
  }

  (* Per-thread context and operation state: the CAS-list buffer, a
     scratch descriptor for in-generator and wrap-up CASes (never a
     CAS-list slot, so an unlink cannot overwrite a filled entry), the
     [find] results and the auxiliary values a generator leaves for its
     wrap-up — all preallocated and refilled in place. *)
  type ctx = {
    t : t;
    sctx : S.ctx;
    rng : Oa_util.Splitmix.t;
    preds : Ptr.t array;
    succs : Ptr.t array;
    cas : N.cas_list;
    scratch : N.desc;
    mutable found : bool;  (* [contains]'s answer *)
    mutable node : Ptr.t;
        (* [insert]'s node, allocated once and reused across generator
           restarts; null between operations *)
    mutable node_level : int;
  }

  let key_cell t p = A.field t.arena p f_key
  let level_cell t p = A.field t.arena p f_level
  let count_cell t p = A.field t.arena p f_count
  let next_cell t p lvl = A.field t.arena p (f_next + lvl)

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
        let head = Ptr.of_index idx in
        R.write (A.field arena head f_key) min_int;
        R.write (A.field arena head f_level) max_level;
        let head_next = A.field arena head f_next in
        R.write head_next Ptr.null;
        for lvl = 1 to max_level - 1 do
          R.write (A.field arena head (f_next + lvl)) Ptr.null
        done;
        { arena; smr; head; head_next }

  let register ?(seed = 1) t =
    {
      t;
      sctx = S.register t.smr;
      rng = Oa_util.Splitmix.create (seed lor 1);
      preds = Array.make max_level Ptr.null;
      succs = Array.make max_level Ptr.null;
      cas = N.cas_list ~capacity:max_cas_needed t.head_next;
      scratch = N.desc t.head_next;
      found = false;
      node = Ptr.null;
      node_level = 0;
    }

  let smr t = t.smr
  let head t = t.head

  (* Geometric level distribution, p = 1/2, in [1, max_level]. *)
  let rec count_level lvl b =
    if lvl >= max_level || b land 1 = 0 then lvl
    else count_level (lvl + 1) (b lsr 1)

  let random_level ctx = count_level 1 (Oa_util.Splitmix.next ctx.rng)

  (* A successful unlink of [node] at some level bumps its counter; the
     unlink that completes the count makes the node unreachable from every
     level and performs the proper retire. *)
  let note_unlink ctx node =
    let t = ctx.t in
    let lvl_count = R.read (level_cell t node) in
    let before = R.faa (count_cell t node) 1 in
    if before + 1 = lvl_count then S.retire ctx.sctx node

  (* The find helper: fills [ctx.preds] and [ctx.succs] for [key] at every
     level, physically unlinking marked nodes on the way (restartable
     auxiliary CASes), and returns whether an unmarked node with [key] sits
     at the bottom level.  [pred] descends from the head; [s_cur]/[s_next]
     are the two rotating traversal slots, carried across levels. *)
  let rec find ctx key =
    find_level ctx key (max_level - 1) s_rot0 (s_rot0 + 1) ctx.t.head

  and find_level ctx key lvl s_cur s_next pred =
    let cur = S.read_ptr ctx.sctx ~hp:s_cur (next_cell ctx.t pred lvl) in
    if Ptr.is_marked cur then find ctx key
    else find_walk ctx key lvl s_cur s_next pred cur

  and find_walk ctx key lvl s_cur s_next pred cur =
    let t = ctx.t and sctx = ctx.sctx in
    if Ptr.is_null cur then begin
      S.protect_move sctx ~hp:(p_slot lvl) pred;
      ctx.preds.(lvl) <- pred;
      ctx.succs.(lvl) <- Ptr.null;
      if lvl = 0 then false
      else find_level ctx key (lvl - 1) s_cur s_next pred
    end
    else begin
      let curp = Ptr.unmark cur in
      (* key and succ are independent reads; read_ptr's check covers
         both (batched-reads optimization). *)
      let ckey = S.read_data sctx (key_cell t curp) in
      let succ = S.read_ptr sctx ~hp:s_next (next_cell t curp lvl) in
      if Ptr.is_marked succ then begin
        (* snip the deleted [curp] out of this level *)
        let unmarked = Ptr.unmark succ in
        N.set ctx.scratch ~obj:pred ~target:(next_cell t pred lvl)
          ~expected:cur ~new_value:unmarked;
        if not (S.cas sctx ctx.scratch) then find ctx key
        else begin
          note_unlink ctx curp;
          find_walk ctx key lvl s_next s_cur pred unmarked
        end
      end
      else if ckey < key then begin
        S.protect_move sctx ~hp:(p_slot lvl) curp;
        find_walk ctx key lvl s_next s_cur curp succ
      end
      else begin
        S.protect_move sctx ~hp:(p_slot lvl) pred;
        S.protect_move sctx ~hp:(s_slot lvl) curp;
        ctx.preds.(lvl) <- pred;
        ctx.succs.(lvl) <- curp;
        if lvl = 0 then ckey = key
        else find_level ctx key (lvl - 1) s_cur s_next pred
      end
    end


  (* [contains]: a CAS-free descent that skips marked nodes; [found] is
     the verdict of the lowest level that stopped at a node so far. *)
  let rec contains_level ctx key lvl s_cur s_next pred found =
    if lvl < 0 then found
    else
      contains_walk ctx key lvl s_cur s_next pred found
        (S.read_ptr ctx.sctx ~hp:s_cur (next_cell ctx.t pred lvl))

  and contains_walk ctx key lvl s_cur s_next pred found cur =
    if Ptr.is_null cur then
      contains_level ctx key (lvl - 1) s_cur s_next pred found
    else begin
      let t = ctx.t and sctx = ctx.sctx in
      let curp = Ptr.unmark cur in
      (* independent reads; read_ptr's check covers both *)
      let ckey = S.read_data sctx (key_cell t curp) in
      let succ = S.read_ptr sctx ~hp:s_next (next_cell t curp lvl) in
      if Ptr.is_marked succ then
        (* skip the logically deleted node without unlinking *)
        contains_walk ctx key lvl s_next s_cur pred found (Ptr.unmark succ)
      else if ckey < key then begin
        S.protect_move sctx ~hp:(p_slot lvl) curp;
        contains_walk ctx key lvl s_next s_cur curp found succ
      end
      else contains_level ctx key (lvl - 1) s_cur s_next pred (ckey = key)
    end

  let contains_gen ctx key =
    ctx.found <-
      contains_level ctx key (max_level - 1) s_rot0 (s_rot0 + 1) ctx.t.head
      false

  let contains_wrap ctx _key _failed = Bool.to_int ctx.found

  (** [contains ctx key]: a CAS-free descent that skips marked nodes. *)
  let contains ctx key =
    N.run ctx.sctx ctx.cas contains_gen contains_wrap ctx key = 1

  (* Link the upper levels [lvl .. level-1] of a freshly inserted node;
     runs in the wrap-up and is restartable: every iteration re-finds the
     position and every modification is a protected CAS whose failure
     just retries. *)
  let rec link_upper ctx node level key lvl =
    if lvl < level then begin
      let t = ctx.t and sctx = ctx.sctx in
      ignore (find ctx key);
      if Ptr.equal ctx.succs.(lvl) node then
        link_upper ctx node level key (lvl + 1)
      else begin
        let c = S.read_ptr sctx ~hp:(s_rot0 + 2) (next_cell t node lvl) in
        if Ptr.is_marked c then () (* node was deleted: stop linking *)
        else begin
          let target_succ = ctx.succs.(lvl) in
          let retry =
            c <> target_succ
            && begin
                 N.set ctx.scratch ~obj:node ~target:(next_cell t node lvl)
                   ~expected:c ~new_value:target_succ;
                 not (S.cas sctx ctx.scratch)
               end
          in
          if retry then link_upper ctx node level key lvl
          else begin
            let pred = ctx.preds.(lvl) in
            N.set ctx.scratch ~obj:pred ~target:(next_cell t pred lvl)
              ~expected:target_succ ~new_value:node;
            if S.cas sctx ctx.scratch then
              link_upper ctx node level key (lvl + 1)
            else link_upper ctx node level key lvl
          end
        end
      end
    end

  let insert_gen ctx key =
    let t = ctx.t and sctx = ctx.sctx in
    if find ctx key then begin
      if not (Ptr.is_null ctx.node) then begin
        S.dealloc sctx ctx.node;
        ctx.node <- Ptr.null
      end
    end
    else begin
      if Ptr.is_null ctx.node then begin
        ctx.node <- S.alloc sctx;
        ctx.node_level <- random_level ctx
      end;
      let node = ctx.node in
      R.write (key_cell t node) key;
      R.write (level_cell t node) ctx.node_level;
      R.write (count_cell t node) 0;
      for lvl = 0 to ctx.node_level - 1 do
        R.write (next_cell t node lvl) ctx.succs.(lvl)
      done;
      let pred = ctx.preds.(0) in
      N.push ctx.cas ~obj:pred ~target:(next_cell t pred 0)
        ~expected:ctx.succs.(0) ~new_value:node
    end

  (* The node stays cached until the wrap-up completes: a rollback inside
     [link_upper] re-runs the wrap-up, which must still know the node. *)
  let insert_wrap ctx key failed =
    if ctx.cas.len = 0 then 0
    else if failed <> N.none_failed then N.restart_generator
    else begin
      if ctx.node_level > 1 then link_upper ctx ctx.node ctx.node_level key 1;
      ctx.node <- Ptr.null;
      1
    end

  (** [insert ctx key] adds [key] with a random level; false if present.
      The bottom-level link is the single CAS of the executor. *)
  let insert ctx key =
    N.run ctx.sctx ctx.cas insert_gen insert_wrap ctx key = 1

  (* Marks are appended top-down, so the bottom-level mark — the
     linearization point — is the executor's last CAS.  A marked bottom
     level means a concurrent delete won: the list is dropped. *)
  let delete_gen ctx key =
    let t = ctx.t and sctx = ctx.sctx in
    if find ctx key then begin
      let node = ctx.succs.(0) in
      let level = S.read_data sctx (level_cell t node) in
      S.check sctx;
      let abort = ref false in
      for lvl = level - 1 downto 0 do
        if not !abort then begin
          let nx = S.read_ptr sctx ~hp:(s_rot0 + 2) (next_cell t node lvl) in
          if Ptr.is_marked nx then begin
            (* someone else is deleting; at the bottom level they win *)
            if lvl = 0 then abort := true
          end
          else
            N.push ctx.cas ~obj:node ~target:(next_cell t node lvl)
              ~expected:nx ~new_value:(Ptr.mark nx)
        end
      done;
      if !abort then ctx.cas.len <- 0
    end

  let delete_wrap ctx key failed =
    if ctx.cas.len = 0 then 0
    else if failed <> N.none_failed then N.restart_generator
    else begin
      ignore (find ctx key);
      1
    end

  (** [delete ctx key] marks the victim's next fields top-down (bottom
      last, the linearization point); at most [level] CASes, the paper's
      [MAXLEN + 1] bound.  A post-success [find] physically unlinks the
      node promptly, as in Herlihy-Shavit. *)
  let delete ctx key =
    N.run ctx.sctx ctx.cas delete_gen delete_wrap ctx key = 1

  (* Batched execution through the scheme's amortised path (see
     Smr_intf.run_batch); each thunk must be a complete operation on this
     context. *)
  let run_batch ctx n f = S.run_batch ctx.sctx n f

  (* --- Quiescent helpers --- *)

  (** Keys of unmarked bottom-level nodes, in order. *)
  let to_list t =
    let rec go acc p =
      if Ptr.is_null p then List.rev acc
      else
        let u = Ptr.unmark p in
        let next = R.read (next_cell t u 0) in
        let acc =
          if Ptr.is_marked next then acc else R.read (key_cell t u) :: acc
        in
        go acc next
    in
    go [] (R.read (next_cell t t.head 0))

  (** Structural invariants: strictly increasing unmarked keys at level 0,
      every level-[l] list a subsequence of level 0's unmarked nodes,
      termination within [limit] hops per level. *)
  let validate t ~limit =
    let level_nodes lvl =
      let rec go acc p hops =
        if hops > limit then Error "level does not terminate"
        else if Ptr.is_null p then Ok (List.rev acc)
        else
          let u = Ptr.unmark p in
          let next = R.read (next_cell t u lvl) in
          let acc = if Ptr.is_marked next then acc else Ptr.index u :: acc in
          go acc next (hops + 1)
      in
      go [] (R.read (next_cell t t.head lvl)) 0
    in
    match level_nodes 0 with
    | Error e -> Error e
    | Ok base ->
        let keys = List.map (fun i -> R.read (key_cell t (Ptr.of_index i))) base in
        let rec increasing last = function
          | [] -> true
          | k :: rest -> k > last && increasing k rest
        in
        if not (increasing min_int keys) then Error "keys not increasing"
        else
          let base_set = Hashtbl.create 64 in
          List.iter (fun i -> Hashtbl.replace base_set i ()) base;
          let rec check lvl =
            if lvl >= max_level then Ok ()
            else
              match level_nodes lvl with
              | Error e -> Error e
              | Ok nodes ->
                  if List.for_all (Hashtbl.mem base_set) nodes then
                    check (lvl + 1)
                  else
                    Error
                      (Printf.sprintf
                         "level %d contains a node missing from level 0" lvl)
          in
          check 1
end
