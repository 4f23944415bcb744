type cell = { mutable v : int; line : int; mutable own_ver : int }
type 'a rcell = { mutable rv : 'a; rline : int }
type cache = { tags : int array; vers : int array }

type t = {
  sched : Sched.t;
  cm : Cost_model.t;
  slot_mask : int;
  mutable n_lines : int;
  mutable writer : int array;
  mutable version : int array;
  caches : cache array;
}

let create sched ~threads =
  let cm = Sched.cost_model sched in
  let slots = cm.Cost_model.cache_slots in
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Smem.create: cache_slots must be a power of two";
  let mk_cache _ =
    { tags = Array.make slots (-1); vers = Array.make slots 0 }
  in
  {
    sched;
    cm;
    slot_mask = slots - 1;
    n_lines = 0;
    writer = Array.make 1024 (-1);
    version = Array.make 1024 0;
    caches = Array.init (max threads 1) mk_cache;
  }

let grow t needed =
  if needed > Array.length t.writer then begin
    let cap = max needed (2 * Array.length t.writer) in
    let writer = Array.make cap (-1) and version = Array.make cap 0 in
    Array.blit t.writer 0 writer 0 t.n_lines;
    Array.blit t.version 0 version 0 t.n_lines;
    t.writer <- writer;
    t.version <- version
  end

let new_line t =
  grow t (t.n_lines + 1);
  let l = t.n_lines in
  t.n_lines <- l + 1;
  l

let cell t v = { v; line = new_line t; own_ver = -1 }

let node_matrix t ~nodes ~fields =
  let matrix = Array.make_matrix fields nodes { v = 0; line = 0; own_ver = -1 } in
  for j = 0 to nodes - 1 do
    let line = new_line t in
    for f = 0 to fields - 1 do
      matrix.(f).(j) <- { v = 0; line; own_ver = -1 }
    done
  done;
  matrix

(* Cost of a read by [tid] of [line] given the current cache state, and the
   corresponding cache update.  The cache entry is refreshed to the line's
   current version, modelling the fetch. *)
let read_cost t tid line =
  let cache = t.caches.(tid) in
  let slot = line land t.slot_mask in
  let hit = cache.tags.(slot) = line && cache.vers.(slot) = t.version.(line) in
  if hit then t.cm.Cost_model.read_hit else t.cm.Cost_model.read_miss

let refresh_cache t tid line =
  let cache = t.caches.(tid) in
  let slot = line land t.slot_mask in
  cache.tags.(slot) <- line;
  cache.vers.(slot) <- t.version.(line)

let write_cost t tid line =
  let owned = t.writer.(line) = tid && read_cost t tid line = t.cm.Cost_model.read_hit in
  if owned then t.cm.Cost_model.write_hit else t.cm.Cost_model.write_miss

let do_write_bookkeeping t tid line =
  t.version.(line) <- t.version.(line) + 1;
  t.writer.(line) <- tid;
  refresh_cache t tid line

let read_line t line =
  let tid = Sched.tid t.sched in
  if tid >= 0 then begin
    Sched.note_yield t.sched Sched.Read;
    Sched.charge t.sched (t.cm.Cost_model.access_overhead + read_cost t tid line);
    Sched.maybe_yield t.sched;
    refresh_cache t tid line
  end

let read t c =
  read_line t c.line;
  c.v

(* A cell that is read by a single thread and almost always last written by
   that thread (a warning word, the thread's own hazard slots) stays
   resident — the check compiles to a load-and-branch: one cycle unless
   another thread has actually written the cell since the last own-read
   (then a normal coherence miss).  Tracked per cell rather than through
   the direct-mapped cache, which would evict such hot lines during long
   traversals. *)
let read_own t c =
  let tid = Sched.tid t.sched in
  if tid >= 0 then begin
    let ver = t.version.(c.line) in
    let cost = if c.own_ver = ver then 1 else t.cm.Cost_model.read_miss in
    c.own_ver <- ver;
    Sched.note_yield t.sched Sched.Read;
    Sched.charge t.sched cost;
    Sched.maybe_yield t.sched
  end;
  c.v

let write_line t line =
  let tid = Sched.tid t.sched in
  if tid >= 0 then begin
    Sched.note_yield t.sched Sched.Write;
    Sched.charge t.sched (t.cm.Cost_model.access_overhead + write_cost t tid line);
    Sched.maybe_yield t.sched;
    do_write_bookkeeping t tid line
  end

let write t c v =
  write_line t c.line;
  c.v <- v

(* CAS pays the full ownership cost whether it succeeds or fails, and is
   always a scheduling point so that contended interleavings are explored
   at full resolution.  The mutation after the yield is not interruptible,
   which makes it atomic with respect to all other accesses. *)
let cas_line t line =
  let tid = Sched.tid t.sched in
  if tid >= 0 then begin
    Sched.note_yield t.sched Sched.Cas;
    Sched.charge t.sched
      (t.cm.Cost_model.access_overhead
      + write_cost t tid line
      + t.cm.Cost_model.cas_extra);
    Sched.force_yield t.sched;
    do_write_bookkeeping t tid line
  end

let cas t c expected new_v =
  cas_line t c.line;
  if c.v = expected then begin
    c.v <- new_v;
    true
  end
  else false

let faa t c d =
  cas_line t c.line;
  let old = c.v in
  c.v <- old + d;
  old

let fence t =
  let tid = Sched.tid t.sched in
  if tid >= 0 then begin
    Sched.note_yield t.sched Sched.Fence;
    Sched.charge t.sched t.cm.Cost_model.fence;
    Sched.force_yield t.sched
  end

let rcell t v = { rv = v; rline = new_line t }

let rread t r =
  read_line t r.rline;
  r.rv

let rwrite t r v =
  write_line t r.rline;
  r.rv <- v

let rcas t r expected new_v =
  cas_line t r.rline;
  if r.rv == expected then begin
    r.rv <- new_v;
    true
  end
  else false
