(** Elastic size-classed node allocator fusing OA reclamation with
    allocation.

    The fixed arena of the original port pre-allocates every node up
    front and can never return memory to the OS.  [Oa_alloc] replaces
    that storage with an append-only table of power-of-two {e chunks},
    each one runtime node block of [chunk_nodes] same-class nodes:

    - {b grow}: mapping is lazy — the table starts with one chunk and
      {!grow} appends more on demand, so there is no fixed capacity (the
      only residual bound is the backend's address-space reservation).
    - {b recycle}: slots released by the SMR schemes go on their {e home}
      chunk's free list (a CAS-swapped immutable list, exactly the
      versioned-pool idiom) and are preferred over fresh bump space by
      {!take}.
    - {b shrink}: the release that parks a chunk's last outstanding slot
      takes the whole chunk through [Open -> Decommitting ->
      Decommitted]: the winner zeroes the carve and hands its pages back
      to the OS via [R.decommit_block].  The mapping survives, so stale
      optimistic readers keep reading zeros rather than faulting — the
      paper's Assumption 3.1 is preserved across shrink.

    Node indices are globally stable: chunk [c] owns indices
    [c * chunk_nodes .. (c+1) * chunk_nodes - 1] ([chunk_nodes] is a
    power of two, so the split is a shift and a mask).  Decommitted
    chunks keep their index range; taking a slot from one flips it back
    to [Open] {e before} any index is handed out, so a new owner's
    writes never race the decommit's zeroing. *)

module Size_class = Size_class

module Make (R : Oa_runtime.Runtime_intf.S) = struct
  (* One CAS-swapped value per chunk carries the free list and the
     lifecycle, so "last free slot appeared" and "chunk left the Open
     state" are single linearization points. *)
  type cstate =
    | Open of { cfree : int list; n_free : int }
        (** [cfree] lists local slot numbers available for reuse. *)
    | Decommitting
        (** A releaser won the full-free CAS and is zeroing/decommitting;
            no slot may be granted until it publishes [Decommitted]. *)
    | Decommitted
        (** Pages returned to the OS; all slots implicitly free. *)

  type chunk = {
    cblk : R.block;
        (* the chunk's nodes, addressed by arithmetic: no per-slot storage
           on the OCaml heap *)
    cbump : R.cell;  (* next never-granted slot; may overshoot chunk_nodes *)
    cstate : cstate R.rcell;
  }

  type t = {
    n_fields : int;
    spc : int;  (* slots (nodes) per chunk, a power of two *)
    shift : int;
    mask : int;
    stride : int;  (* words per node in the flat layout *)
    table : chunk array R.rcell;  (* append-only *)
    open_chunk : R.cell;  (* id of the chunk the bump path draws from *)
    hints : int list R.rcell;
        (* ids of chunks that may hold free slots; lossy duplicates are
           fine, lost free slots are not — see the push discipline below *)
    n_mapped : R.cell;
    n_decommitted : R.cell;
  }

  let n_fields t = t.n_fields
  let chunk_nodes t = t.spc
  let capacity t = Array.length (R.rread t.table) * t.spc
  let index t ~chunk ~slot = (chunk lsl t.shift) lor slot

  (* The per-access lookup of elastic arenas; as hot as [Arena.field] on
     the fixed path, so every indexing is unchecked.  In-range by
     construction: the table is append-only and [idx] was granted from a
     chunk already in it (stale optimistic reads only yield values that
     were written, i.e. granted indices — the backends' no-torn-read
     contract); [f] is a static field id; [idx land t.mask] is below the
     power-of-two [spc] that sizes every chunk's block. *)
  let field t idx f =
    let c = Array.unsafe_get (R.rread t.table) (idx lsr t.shift) in
    R.node_cell c.cblk (idx land t.mask) f

  (* Bounds-checked reference for the differential test. *)
  let field_checked t idx f =
    let c = (R.rread t.table).(idx lsr t.shift) in
    if f < 0 || f >= t.n_fields then invalid_arg "Oa_alloc.field_checked";
    R.node_cell c.cblk (idx land t.mask) f

  (* Zero all fields of one node (the paper's [memset(obj, 0)] of
     Algorithm 5). *)
  let zero_node t idx =
    let c = (R.rread t.table).(idx lsr t.shift) in
    R.zero_node c.cblk (idx land t.mask)

  (* -- hint stack ------------------------------------------------------ *)

  (* Invariant: a chunk with free (or implicitly free, i.e. Decommitted)
     slots always has at least one hint on the stack.  Maintained by
     pushing on every empty->non-empty free-list transition, re-pushing
     after a partial drain, and pushing after publishing [Decommitted]. *)

  let push_hint t cid =
    let rec go () =
      let l = R.rread t.hints in
      if not (R.rcas t.hints l (cid :: l)) then go ()
    in
    go ()

  let rec pop_hint t =
    match R.rread t.hints with
    | [] -> None
    | cid :: rest as l ->
        if R.rcas t.hints l rest then Some cid else pop_hint t

  (* -- chunk construction / growth ------------------------------------- *)

  let alloc_chunk t ~prebump =
    (* let-bound so the block is carved before the record's cells: on the
       sim backend the carve order fixes every modelled line id *)
    let blk = R.node_block ~nodes:t.spc ~fields:t.n_fields in
    {
      cblk = blk;
      cbump = R.cell prebump;
      cstate = R.rcell (Open { cfree = []; n_free = 0 });
    }

  (* Chunk ids are positional, and a freshly carved chunk record is
     position-independent, so growth is carve-once / CAS-append-retry:
     a lost race re-appends the same record at the next position and no
     carve is ever leaked. *)
  let append t cs =
    let rec go () =
      let tbl = R.rread t.table in
      let n = Array.length tbl in
      if R.rcas t.table tbl (Array.append tbl (Array.of_list cs)) then n
      else go ()
    in
    go ()

  let grow t =
    match alloc_chunk t ~prebump:0 with
    | exception Failure _ -> false (* backend reservation exhausted *)
    | c ->
        ignore (append t [ c ]);
        ignore (R.faa t.n_mapped 1);
        true

  let create ?chunk_nodes ~n_fields () =
    if n_fields <= 0 then invalid_arg "Oa_alloc.create";
    let spc =
      match chunk_nodes with
      | Some n when n <= 0 -> invalid_arg "Oa_alloc.create"
      | Some n -> Size_class.pow2_at_least n
      | None -> Size_class.default_chunk_nodes ~fields:n_fields
    in
    let t =
      {
        n_fields;
        spc;
        shift = Size_class.log2 spc;
        mask = spc - 1;
        stride =
          Oa_runtime.Real_backend.node_stride ~nodes:spc ~fields:n_fields;
        table = R.rcell [||];
        open_chunk = R.cell 0;
        hints = R.rcell [];
        n_mapped = R.cell 0;
        n_decommitted = R.cell 0;
      }
    in
    (* map the first chunk eagerly so the bump path always has a target *)
    if not (grow t) then failwith "Oa_alloc.create: cannot map first chunk";
    t

  (* -- release / decommit ---------------------------------------------- *)

  (* Release [idx] to its home chunk's free list.  When this was the last
     outstanding slot of a fully-bumped chunk, try to take the whole chunk
     back to the OS; returns [true] when a decommit actually happened.
     While the winner is in [Decommitting] no slot can be granted (the
     free list is unreachable), so its zeroing never races a new owner. *)
  let release t idx =
    let cid = idx lsr t.shift in
    let c = (R.rread t.table).(cid) in
    let slot = idx land t.mask in
    let rec park () =
      match R.rread c.cstate with
      | Open { cfree; n_free } as st ->
          if
            R.rcas c.cstate st
              (Open { cfree = slot :: cfree; n_free = n_free + 1 })
          then begin
            if n_free = 0 then push_hint t cid;
            n_free + 1 = t.spc
          end
          else park ()
      | Decommitting | Decommitted ->
          (* a released slot was outstanding, so its chunk cannot have
             been fully free: reaching here means a double release *)
          assert false
    in
    park ()
    &&
    let rec claim () =
      match R.rread c.cstate with
      | Open { n_free; _ } as st when n_free = t.spc ->
          if R.rcas c.cstate st Decommitting then begin
            ignore (R.faa t.n_decommitted 1);
            R.decommit_block c.cblk;
            R.rwrite c.cstate Decommitted;
            push_hint t cid;
            true
          end
          else claim ()
      | _ -> false (* a take got in between; the chunk is busy again *)
    in
    claim ()

  (* -- take (allocation) ----------------------------------------------- *)

  (* Grant up to [want] slots of chunk [cid] from its free list (or its
     implicit Decommitted free set), writing indices into [dst] at [at]. *)
  let take_from_chunk t c cid ~dst ~at ~want =
    let rec go () =
      match R.rread c.cstate with
      | Decommitting -> 0 (* the decommitter will re-push the hint *)
      | Decommitted ->
          let got = min want t.spc in
          let rec rest i acc = if i < got then acc else rest (i - 1) (i :: acc) in
          let cfree = rest (t.spc - 1) [] in
          if
            R.rcas c.cstate Decommitted
              (Open { cfree; n_free = t.spc - got })
          then begin
            ignore (R.faa t.n_decommitted (-1));
            for i = 0 to got - 1 do
              dst.(at + i) <- index t ~chunk:cid ~slot:i
            done;
            if t.spc - got > 0 then push_hint t cid;
            got
          end
          else go ()
      | Open { n_free = 0; _ } -> 0 (* stale hint *)
      | Open { cfree; n_free } as st ->
          let got = min want n_free in
          let rec split k l acc =
            if k = 0 then (acc, l)
            else
              match l with
              | s :: tl -> split (k - 1) tl (s :: acc)
              | [] -> assert false
          in
          let taken, rest = split got cfree [] in
          if R.rcas c.cstate st (Open { cfree = rest; n_free = n_free - got })
          then begin
            List.iteri
              (fun i s -> dst.(at + i) <- index t ~chunk:cid ~slot:s)
              taken;
            if n_free - got > 0 then push_hint t cid;
            got
          end
          else go ()
    in
    go ()

  (** [take t ~dst ~max] fills [dst.(0 .. r-1)] with up to [max] node
      indices — recycled slots first, then fresh ones bumped from the open
      chunk — and returns [r].  [r = 0] means every mapped chunk is
      exhausted; the caller decides whether to {!grow}.  Never maps. *)
  let take t ~dst ~max =
    let filled = ref 0 in
    (* recycled slots first: they are already-committed memory *)
    let dry = ref false in
    while !filled < max && not !dry do
      match pop_hint t with
      | None -> dry := true
      | Some cid ->
          let c = (R.rread t.table).(cid) in
          filled :=
            !filled
            + take_from_chunk t c cid ~dst ~at:!filled ~want:(max - !filled)
    done;
    (* then fresh slots from the open chunk's bump region *)
    let dry = ref false in
    while !filled < max && not !dry do
      let cid = R.read t.open_chunk in
      let tbl = R.rread t.table in
      let c = tbl.(cid) in
      let first = R.faa c.cbump (max - !filled) in
      if first >= t.spc then begin
        (* exhausted: advance to the next mapped chunk, if any *)
        if cid + 1 < Array.length tbl then
          ignore (R.cas t.open_chunk cid (cid + 1))
        else dry := true
      end
      else begin
        let got = min (max - !filled) (t.spc - first) in
        for i = 0 to got - 1 do
          dst.(!filled + i) <- index t ~chunk:cid ~slot:(first + i)
        done;
        filled := !filled + got
      end
    done;
    !filled

  (* -- contiguous regions ---------------------------------------------- *)

  (** [bump_region t n] grants [n] {e consecutive} node indices (a pool
      refill's run, a structure's sentinel), growing as needed; [None] only when the backend reservation
      is exhausted.  A request larger than a chunk appends a dedicated run
      of consecutive chunk ids whose unused tail is released back as
      ordinary free slots. *)
  let bump_region t n =
    if n <= 0 then invalid_arg "Oa_alloc.bump_region";
    if n <= t.spc then begin
      let rec try_open budget =
        if budget = 0 then None
        else
          let cid = R.read t.open_chunk in
          let tbl = R.rread t.table in
          let c = tbl.(cid) in
          let first = R.faa c.cbump n in
          if first + n <= t.spc then Some (index t ~chunk:cid ~slot:first)
          else begin
            (* park the overshoot's usable remainder as free slots *)
            if first < t.spc then
              for s = first to t.spc - 1 do
                ignore (release t (index t ~chunk:cid ~slot:s))
              done;
            if cid + 1 < Array.length tbl then begin
              ignore (R.cas t.open_chunk cid (cid + 1));
              try_open (budget - 1)
            end
            else if grow t then try_open (budget - 1)
            else None
          end
      in
      try_open 64
    end
    else begin
      let m = (n + t.spc - 1) / t.spc in
      match List.init m (fun _ -> alloc_chunk t ~prebump:t.spc) with
      | exception Failure _ -> None
      | cs ->
          let base_id = append t cs in
          ignore (R.faa t.n_mapped m);
          let base = base_id lsl t.shift in
          (* hand the unused tail back as ordinary free slots *)
          for idx = base + n to base + (m * t.spc) - 1 do
            ignore (release t idx)
          done;
          Some base
    end

  (* -- accounting ------------------------------------------------------ *)

  let bump_used t =
    Array.fold_left
      (fun acc c -> acc + min (R.read c.cbump) t.spc)
      0 (R.rread t.table)

  let chunk_bytes t = t.spc * t.stride * Size_class.word_bytes

  let gauges t =
    let mapped = R.read t.n_mapped in
    let live = mapped - R.read t.n_decommitted in
    [
      ("mem_chunks_live", live);
      ("mem_chunks_mapped", mapped);
      ("mem_committed_bytes", live * chunk_bytes t);
    ]
end
