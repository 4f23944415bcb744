(** Bounded multi-producer multi-consumer queue between connection
    handlers and shard workers.

    The push side never blocks: a full queue rejects what does not fit
    and the caller answers BUSY — backpressure by rejection rather than
    unbounded buffering, so a slow shard surfaces as client-visible
    latency/BUSY instead of memory growth.  Producers push a whole
    pipelined round's share for this shard at once ({!push_many}): one
    mutex acquisition and at most one wakeup per round, and the rejected
    requests are always a tail of the share, so the accepted ones keep
    their submission order.  The pop side blocks and dequeues in batches,
    amortizing one mutex acquisition and one cross-domain cache transfer
    over up to [max] requests.

    A plain mutex + condition protects a ring buffer of bare items; free
    slots hold the [dummy] given at {!create}, so a dequeued item is not
    kept alive by the ring.  The mutex keeps the close/drain semantics
    obvious: after {!close}, pushes fail and pops drain the remainder,
    then return [(0, 0)]. *)

type 'a t = {
  buf : 'a array;
  dummy : 'a;
  mutable head : int;  (** index of the oldest item *)
  mutable len : int;
  mutable closed : bool;
  m : Mutex.t;
  nonempty : Condition.t;
}

let create ~capacity ~dummy =
  if capacity <= 0 then invalid_arg "Shard_queue.create";
  {
    buf = Array.make capacity dummy;
    dummy;
    head = 0;
    len = 0;
    closed = false;
    m = Mutex.create ();
    nonempty = Condition.create ();
  }

let capacity t = Array.length t.buf

(** [push_many t src ~pos ~len] enqueues the longest prefix of
    [src.(pos .. pos+len-1)] that fits and returns its length: [len] when
    everything fit, less when the queue filled up, [0] when it is closed.
    Never blocks; signals one consumer when anything was enqueued. *)
let push_many t src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length src then
    invalid_arg "Shard_queue.push_many";
  Mutex.lock t.m;
  let cap = Array.length t.buf in
  let k = if t.closed then 0 else min len (cap - t.len) in
  for j = 0 to k - 1 do
    t.buf.((t.head + t.len + j) mod cap) <- src.(pos + j)
  done;
  t.len <- t.len + k;
  if k > 0 then Condition.signal t.nonempty;
  Mutex.unlock t.m;
  k

(** [pop_batch_into t dst ~max] blocks until items are available, then
    dequeues up to [max] of them in FIFO order into [dst.(0 .. k-1)] (a
    preallocated per-worker buffer, reused across rendezvous) and returns
    [(k, depth)], [depth] being the queue depth seen at dequeue time
    (before removal).  [(0, _)] only once closed and drained. *)
let pop_batch_into t dst ~max =
  if max <= 0 || max > Array.length dst then
    invalid_arg "Shard_queue.pop_batch_into";
  Mutex.lock t.m;
  while t.len = 0 && not t.closed do
    Condition.wait t.nonempty t.m
  done;
  let depth = t.len in
  let k = min max t.len in
  for j = 0 to k - 1 do
    let i = t.head in
    dst.(j) <- t.buf.(i);
    t.buf.(i) <- t.dummy;
    t.head <- (i + 1) mod Array.length t.buf;
    t.len <- t.len - 1
  done;
  (* Items may remain (len > max): hand the wakeup on to another worker
     rather than letting it wait for the next push. *)
  if t.len > 0 then Condition.signal t.nonempty;
  Mutex.unlock t.m;
  (k, depth)

let length t =
  Mutex.lock t.m;
  let n = t.len in
  Mutex.unlock t.m;
  n

(** Reject further pushes and wake every blocked consumer; already-queued
    items are still drained by {!pop_batch_into}. *)
let close t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m
