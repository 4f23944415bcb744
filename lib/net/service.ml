(** The sharded key-value core: the first subsystem that composes arena +
    SMR scheme + lock-free structure + real backend + telemetry into one
    running request path.

    Keys are hashed across [shards] independent partitions.  Each shard is
    an {!Oa_structures.Hash_table} over its own arena with its own
    instance of the caller-selected SMR scheme, and keeps
    [workers_per_shard] {e execution contexts}: each one SMR registration
    plus the buffers a batch runs through, behind a mutex.  With one
    context per shard the shard's operations are serialised; with more,
    the borrowers contend on the shard's lock-free table and its
    reclamation scheme exactly as the paper's benchmark threads do — but
    behind a real request path whose tail latency makes reclamation stalls
    visible.

    Rounds run to completion on the caller's domain: a connection handler
    stages the requests of one pipelined read in its {!batch} ({!stage}),
    and {!await} groups the round by shard, borrows a context of each
    shard with a share, runs the share on the calling domain and returns
    the context.  No request crosses a domain, so there is no queue, no
    wakeup and no rendezvous; the context mutex is the happens-before
    edge between the domains that borrow one registration in turn.  A
    handler holds at most one context at a time, and only while its share
    runs — never across socket I/O — so a stalled client cannot pin a
    registration.

    BUSY rule: after {!stop} a share finds its context closed; {!await}
    marks each of its items [busy] (and [failed]: it never ran, so its
    [result] is meaningless) and counts it in {!busy_rejections}. *)

module I = Oa_core.Smr_intf
module Schemes = Oa_smr.Schemes

type op_kind = Get | Insert | Delete

(* A batch is one connection's round, reused round after round; it is
   the handler's alone. *)
type batch = {
  slot : int;  (** which of a shard's contexts this batch tries first *)
  mutable route : route;  (** the service this batch stages for *)
  mutable staged : item array;  (** this round, in submission order *)
  mutable staged_shard : int array;  (** each staged item's shard *)
  mutable n : int;  (** items staged this round *)
  mutable order : item array;  (** this round grouped by shard *)
  mutable offsets : int array;  (** per-shard positions in [order] *)
  mutable waiting : int array;  (** shards whose contexts were all busy *)
}

and item = {
  kind : op_kind;
  key : int;
  mutable result : bool;
  mutable failed : bool;
      (** [result] is invalid: the shard operation raised, or the request
          was rejected ([busy]) and never ran *)
  mutable busy : bool;
      (** the service was stopped: not executed, answer BUSY *)
}

(* What {!await} needs of the service: each shard's contexts and the BUSY
   counter. *)
and route = { contexts : context array array; rejections : int Atomic.t }

(* An execution context.  [run items pos len] executes
   [items.(pos .. pos+len-1)] and writes each answer into its item; only
   the holder of [lock] calls it, and [closed] (set by {!stop}, under
   [lock]) refuses every later share. *)
and context = {
  lock : Mutex.t;
  mutable closed : bool;
  run : item array -> int -> int -> unit;
  quiesce : unit -> unit;
  wait_hist : Oa_obs.Histogram.t option;
      (** [shard_wait_ns], resolved once so a waiting share records
          without a name lookup *)
}

let no_route = { contexts = [||]; rejections = Atomic.make 0 }

(* Consecutive batches prefer different contexts of a shard. *)
let next_slot = Atomic.make 0

let new_batch () =
  {
    slot = Atomic.fetch_and_add next_slot 1;
    route = no_route;
    staged = [||];
    staged_shard = [||];
    n = 0;
    order = [||];
    offsets = [||];
    waiting = [||];
  }

(* Fills unused staging slots: never executed, never read. *)
let dummy_item =
  { kind = Get; key = 0; result = false; failed = false; busy = false }

type config = {
  scheme : Schemes.id;
  shards : int;
  workers_per_shard : int;
      (** execution contexts per shard; a durable shard takes exactly one *)
  prefill : int;  (** distinct keys inserted across all shards before serving *)
  key_range : int;  (** keys are expected in [1..key_range] (advisory) *)
  delta : int;  (** arena slack beyond the prefill share, per shard *)
  chunk_size : int;
  dequeue_batch : int;  (** the most requests per batched-path call *)
  seed : int;
  elastic : bool;
      (** back each shard with the elastic chunked arena ({!Oa_alloc}):
          no fixed capacity, fully-free chunks returned to the OS *)
  data_dir : string option;
      (** root of the durability subsystem (docs/persistence.md): each
          shard keeps a write-ahead log and checkpoint under
          [<data-dir>/shard-<i>/]; effective mutations are logged and
          group-commit-fsynced {e before} their round completes, so an
          acked write survives a crash.  [None] = volatile service. *)
  segment_bytes : int;  (** WAL segment rotation threshold *)
  ckpt_every : int;
      (** records between mid-run checkpoints; [<= 0] disables mid-run
          checkpoints — one is still written at {!stop} *)
}

let default_config =
  {
    scheme = Schemes.Optimistic_access;
    shards = 4;
    workers_per_shard = 1;
    prefill = 4_000;
    key_range = 8_000;
    delta = 8_000;
    chunk_size = 126;
    dequeue_batch = 64;
    seed = 1;
    elastic = false;
    data_dir = None;
    segment_bytes = 1 lsl 20;
    ckpt_every = 50_000;
  }

(* One registration's operation bundle.  [exec_batch] executes a whole
   batch, in submission order, through the structure's batched path
   (Hash_table.run_batch), after one group-prefetch pass over the batch's
   bucket heads and first chain nodes (Hash_table.prefetch): a table far
   larger than the caches then takes its batch's misses side by side
   instead of two in a row per operation.  Kinds and keys arrive as two
   parallel arrays of immediates rather than an array of pairs: the
   batched path competes with a per-op loop that allocates nothing, so
   it must not pay a tuple and a record per request either. *)
type worker_ops = {
  exec : op_kind -> int -> bool;
  exec_batch : n:int -> op_kind array -> int array -> bool array -> unit;
      (** execute the first [n] entries of the parallel arrays through
          the batched path, filling results in place — the arrays are
          the context's preallocated buffers, reused across rounds *)
  quiesce : unit -> unit;
}

(* The per-shard handle: scheme/structure types are erased into closures,
   as in [Oa_harness.Experiment]. *)
type shard = {
  register : unit -> worker_ops;
  size : unit -> int;  (** quiescent only *)
  contents : unit -> int array;  (** full key set; quiescent only *)
  validate : unit -> (unit, string) result;  (** quiescent only *)
  smr_stats : unit -> I.stats;
  mem_gauges : unit -> (string * int) list;
      (** the shard arena's memory gauges (chunks live/mapped, committed
          bytes); cheap atomic reads, safe mid-run *)
  persist : Oa_store.Shard_store.t option;
      (** the shard's WAL + checkpoint bundle when [data_dir] is set *)
  store_error : string option Atomic.t;
      (** set by the first WAL or checkpoint error: the shard is
          read-only from then on *)
}

type t = {
  cfg : config;
  sink : Oa_obs.Sink.t;
  shards : shard array;
  route : route;
  processed : int Atomic.t;
  exec_errors : int Atomic.t;
  wal_records : int Atomic.t;
  wal_fsyncs : int Atomic.t;
  ckpts : int Atomic.t;
  recovered_records : int;  (** WAL records replayed at startup *)
  recovered_ckpt_keys : int;  (** checkpoint keys loaded at startup *)
  mutable replica : bool;  (** serving as a read-only follower *)
  mutable stopped : bool;
}

(* Shard routing: a Fibonacci mix over a different bit window than the
   tables' own bucket hash, so shard choice and bucket choice stay
   uncorrelated. *)
let shard_index ~shards key = ((key * 0x2545F4914F6CDD1D) lsr 33) mod shards

(* A fixed shard's flat-arena reservation.  Each table node takes at
   most one line of the arena (a list node is two words, four to a line)
   plus, at most, two more lines for per-node cells a scheme carves
   beside the arena (RC's counters and flags, one line each); the table's
   bucket heads take [head_words] more, one word per bucket; 2^20 words
   (8 MiB of address space) more hold over 16 000 registrations' rows —
   each a hazard row and a warning cell of two lines apiece, plus pool
   cells — far more than the context, prefill and recovery registrations a
   shard makes.  The reservation is never smaller than the backend's
   default, so only a budget past the default grows it.  Pages are
   committed only when touched, so a large budget costs address space,
   not memory. *)
let arena_words ~nodes ~head_words =
  max Oa_runtime.Real_backend.default_arena_words
    ((nodes * 3 * Oa_runtime.Flat_mem.line_words) + head_words + (1 lsl 20))

(* Returns the shard plus (records replayed, checkpoint keys loaded) —
   both 0 for a volatile or fresh-directory shard; [create] uses the
   totals to decide whether the directory already holds state (in which
   case prefill is skipped: recovery owns the contents). *)
let make_shard ~obs ~index ~(cfg : config) : shard * (int * int) =
  let expected = max 16 (cfg.prefill / cfg.shards) in
  let capacity = expected + max cfg.delta (4 * cfg.chunk_size * (cfg.workers_per_shard + 1)) in
  (* Elastic shards map chunks on demand and keep the default
     reservation. *)
  let arena_words =
    if cfg.elastic then None
    else
      Some
        (arena_words ~nodes:capacity
           ~head_words:
             (Oa_structures.Hash_table.head_words ~expected_size:expected))
  in
  let module R = (val Oa_runtime.Real_backend.make ?arena_words ()) in
  let module Sch = Schemes.Make (R) in
  let module S = (val Sch.pack cfg.scheme) in
  let module H = Oa_structures.Hash_table.Make (S) in
  let smr_cfg =
    {
      I.default_config with
      I.chunk_size = cfg.chunk_size;
      retire_threshold =
        max 16 (cfg.delta / (2 * max 1 cfg.workers_per_shard));
      epoch_threshold = max 16 (cfg.delta / (2 * max 1 cfg.workers_per_shard));
    }
  in
  let tbl =
    H.create ~obs ~elastic:cfg.elastic ~capacity ~expected_size:expected
      smr_cfg
  in
  (* The shard arena feeds the sink's gauge pool: same-named gauges from
     all shards are summed into one service-wide view per snapshot. *)
  Oa_obs.Sink.attach_gauges obs (fun () -> H.gauges tbl);
  (* Recovery, before any context exists: load the checkpoint's key set,
     then replay the retained WAL records — both through the structure's
     batched path, from the main domain's registration (the same pattern
     prefill uses). *)
  let persist, recovered =
    match cfg.data_dir with
    | None -> (None, (0, 0))
    | Some data_dir ->
        let ctx = H.register tbl in
        let cap = 512 in
        let rkeys = Array.make cap 0 in
        let rins = Array.make cap true in
        let n = ref 0 in
        (* A delete only marks its node; the unlink and retire are left
           to the next traversal of that bucket.  Live traffic supplies
           those traversals, but the log holds effective mutations only,
           so a replayed delete is rarely followed by another operation
           on its bucket: at a 0.75 load factor the marked nodes would
           pile up unretired — invisible to reclamation — until the
           arena ran dry.  The lookup right after each replayed delete
           is that traversal: it unlinks and retires the node at once.
           The quiesce after the replay reclaims what it retired: no
           later operation runs on this registration. *)
        let flush () =
          H.prefetch tbl ~n:!n rkeys;
          H.run_batch ctx !n (fun i ->
              if rins.(i) then ignore (H.insert tbl ctx rkeys.(i))
              else begin
                ignore (H.delete tbl ctx rkeys.(i));
                ignore (H.contains tbl ctx rkeys.(i))
              end);
          n := 0
        in
        let push is_insert k =
          rkeys.(!n) <- k;
          rins.(!n) <- is_insert;
          incr n;
          if !n = cap then flush ()
        in
        let store, summary =
          Oa_store.Shard_store.open_shard ~data_dir ~index
            ~segment_bytes:cfg.segment_bytes ~ckpt_every:cfg.ckpt_every
            ~on_snapshot:(fun keys -> Array.iter (fun k -> push true k) keys)
            ~on_record:(fun r ->
              push (r.Oa_store.Record.op = Oa_store.Record.Insert)
                r.Oa_store.Record.key)
        in
        flush ();
        H.quiesce ctx;
        (match Oa_obs.Sink.register obs with
        | None -> ()
        | Some r ->
            Oa_obs.Recorder.add r Oa_obs.Event.Replay
              summary.Oa_store.Recovery.replayed);
        ( Some store,
          (summary.Oa_store.Recovery.replayed,
           summary.Oa_store.Recovery.ckpt_keys) )
  in
  ( {
      register =
        (fun () ->
          let ctx = H.register tbl in
          {
            exec =
              (fun kind key ->
                match kind with
                | Get -> H.contains tbl ctx key
                | Insert -> H.insert tbl ctx key
                | Delete -> H.delete tbl ctx key);
            exec_batch =
              (fun ~n kinds keys results ->
                H.prefetch tbl ~n keys;
                H.run_batch ctx n (fun i ->
                    results.(i) <-
                      (match kinds.(i) with
                      | Get -> H.contains tbl ctx keys.(i)
                      | Insert -> H.insert tbl ctx keys.(i)
                      | Delete -> H.delete tbl ctx keys.(i))));
            quiesce = (fun () -> H.quiesce ctx);
          });
      size = (fun () -> List.length (H.to_list tbl));
      contents = (fun () -> Array.of_list (H.to_list tbl));
      validate = (fun () -> H.validate tbl ~limit:(10 * capacity));
      smr_stats = (fun () -> S.stats (H.smr tbl));
      mem_gauges = (fun () -> H.gauges tbl);
      persist;
      store_error = Atomic.make None;
    },
    recovered )

(* A shard's execution context: batched execute, group-commit log, then
   the answers — in that order, because an answer is the client's ack and
   an acked mutation must already be durable (docs/persistence.md).  A
   durable shard has one context, so its appends run in the order its
   batches execute: WAL order is execution order.

   A share runs in chunks of at most [dequeue_batch] items.  A chunk of
   two or more items runs through the scheme's amortised batched path
   ([worker_ops.exec_batch]); a single item takes the per-op path.  An
   exception from the batched path (e.g. [Arena_exhausted] under an
   undersized delta) falls back to per-item execution so that only the
   poisoned item fails; insert/delete are idempotent on the set, so
   re-running the chunk's already-applied prefix in the fallback cannot
   corrupt state (it can only change the boolean answers of that
   exceptional chunk).

   A raise from the log step (a WAL write, fsync, rotation or checkpoint
   failing) leaves the chunk's effects of unknown durability: none of its
   items is acked — all are answered [failed] — and the shard turns
   read-only ({!store_errors}).  From then on its contexts answer every
   mutation [failed] without executing it and still serve gets.

   Every buffer a share touches — kinds, keys, results, the WAL record
   staging — is a per-context array allocated once and reused, so the
   steady-state hot path allocates nothing per operation. *)
let make_context t (shard : shard) =
  let ops = shard.register () in
  let rec_opt = Oa_obs.Sink.register t.sink in
  (* Histograms this context records into once per share (or per
     fsync), resolved here rather than by name on every share. *)
  let batch_hist = I.obs_histogram rec_opt "net_batch" in
  let fsync_hist =
    if shard.persist = None then None
    else I.obs_histogram rec_opt "wal_fsync_ns"
  in
  let cap = max 1 t.cfg.dequeue_batch in
  let kinds = Array.make cap Get in
  let keys = Array.make cap 0 in
  let results = Array.make cap false in
  let failed = Array.make cap false in
  let wops = Array.make cap Oa_store.Record.Insert in
  let wkeys = Array.make cap 0 in
  let fail i =
    Atomic.incr t.exec_errors;
    results.(i) <- false;
    failed.(i) <- true
  in
  let exec_fallback i =
    match ops.exec kinds.(i) keys.(i) with
    | r ->
        results.(i) <- r;
        failed.(i) <- false
    | exception _ -> fail i
  in
  (* Stage and commit this chunk's effective mutations: one append, one
     fsync.  [conservative] is set when the fallback path ran: its
     booleans no longer prove which prefix operations already mutated the
     table, so every non-failed mutation is logged — over-logging is safe
     (replaying a no-op insert/delete is a no-op), under-logging could
     lose an acked write. *)
  let log_batch st ~n ~conservative =
    let m = ref 0 in
    for i = 0 to n - 1 do
      if (not failed.(i)) && (results.(i) || conservative) then begin
        match kinds.(i) with
        | Get -> ()
        | Insert ->
            wops.(!m) <- Oa_store.Record.Insert;
            wkeys.(!m) <- keys.(i);
            incr m
        | Delete ->
            wops.(!m) <- Oa_store.Record.Delete;
            wkeys.(!m) <- keys.(i);
            incr m
      end
    done;
    if !m > 0 then begin
      let last, rotated = Oa_store.Shard_store.append st ~n:!m wops wkeys in
      Atomic.fetch_and_add t.wal_records !m |> ignore;
      let t0 = Oa_runtime.Clock.now_ns () in
      let issued = Oa_store.Shard_store.sync st ~upto:last in
      if issued || rotated then Atomic.incr t.wal_fsyncs;
      (match rec_opt with
      | None -> ()
      | Some r ->
          Oa_obs.Recorder.add r Oa_obs.Event.Wal_append !m;
          if rotated then Oa_obs.Recorder.incr r Oa_obs.Event.Wal_fsync;
          if issued then begin
            Oa_obs.Recorder.incr r Oa_obs.Event.Wal_fsync;
            I.obs_hist fsync_hist (Oa_runtime.Clock.now_ns () - t0)
          end);
      (* Mid-run checkpoint: this context is the durable shard's only
         one, and its holder the sole mutator, so quiescing it makes the
         table safe to snapshot (the rss-curve bench established
         quiesce-then-continue). *)
      if Oa_store.Shard_store.wants_checkpoint st then begin
        ops.quiesce ();
        ignore
          (Oa_store.Shard_store.checkpoint st ~keys:(shard.contents ())
             ~gauges:(shard.mem_gauges ()));
        Atomic.incr t.ckpts;
        match rec_opt with
        | None -> ()
        | Some r -> Oa_obs.Recorder.incr r Oa_obs.Event.Ckpt
      end
    end
  in
  let execute n =
    let conservative = ref false in
    if n >= 2 then begin
      match ops.exec_batch ~n kinds keys results with
      | () -> Array.fill failed 0 n false
      | exception _ ->
          conservative := true;
          for i = 0 to n - 1 do
            exec_fallback i
          done
    end
    else exec_fallback 0;
    match shard.persist with
    | None -> ()
    | Some st -> (
        try log_batch st ~n ~conservative:!conservative
        with e ->
          for i = 0 to n - 1 do
            if not failed.(i) then fail i
          done;
          ignore
            (Atomic.compare_and_set shard.store_error None
               (Some (Printexc.to_string e))))
  in
  (* The counters move before the handler reads its answers, so a client
     holding its reply already sees its request in STATS [processed]. *)
  let run items pos len =
    Atomic.fetch_and_add t.processed len |> ignore;
    I.obs_add rec_opt Oa_obs.Event.Req_done len;
    I.obs_hist batch_hist len;
    let stop = pos + len in
    let pos = ref pos in
    while !pos < stop do
      let base = !pos in
      let n = min cap (stop - base) in
      for i = 0 to n - 1 do
        kinds.(i) <- items.(base + i).kind;
        keys.(i) <- items.(base + i).key
      done;
      if Atomic.get shard.store_error = None then execute n
      else
        for i = 0 to n - 1 do
          match kinds.(i) with
          | Get -> exec_fallback i
          | Insert | Delete -> fail i
        done;
      for i = 0 to n - 1 do
        let it = items.(base + i) in
        it.result <- results.(i);
        it.failed <- failed.(i)
      done;
      pos := base + n
    done
  in
  {
    lock = Mutex.create ();
    closed = false;
    run;
    quiesce = ops.quiesce;
    wait_hist = I.obs_histogram rec_opt "shard_wait_ns";
  }

(* The OCaml major heap in bytes: the part of RSS that is neither the
   flat arena nor code. *)
let heap_bytes () = (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)

let create ?(obs = Oa_obs.Sink.create ()) (cfg : config) : t =
  if cfg.shards <= 0 then invalid_arg "Service.create: shards must be positive";
  if cfg.workers_per_shard <= 0 then
    invalid_arg "Service.create: workers_per_shard must be positive";
  (* Two contexts of one durable shard would each execute, then append:
     one could append a delete of k before the other appends the insert
     of k it executed first, and replay would restore k. *)
  if cfg.data_dir <> None && cfg.workers_per_shard > 1 then
    invalid_arg
      "Service.create: a durable shard takes one execution context \
       (workers_per_shard = 1)";
  let pairs = Array.init cfg.shards (fun index -> make_shard ~obs ~index ~cfg) in
  let shards = Array.map fst pairs in
  let recovered_records =
    Array.fold_left (fun acc (_, (r, _)) -> acc + r) 0 pairs
  in
  let recovered_ckpt_keys =
    Array.fold_left (fun acc (_, (_, k)) -> acc + k) 0 pairs
  in
  (* One process-wide source next to the per-shard arena gauges: resident
     set as the OS sees it and the OCaml major heap, so exported snapshots
     relate the allocator's committed bytes to actual memory. *)
  Oa_obs.Sink.attach_gauges obs (fun () ->
      [
        ("mem_rss_bytes", Oa_runtime.Sysinfo.rss_bytes ());
        ("mem_heap_bytes", heap_bytes ());
      ]);
  (* Prefill from the main domain: one registration per shard, random keys
     from the range until [prefill] distinct keys are in — but only on a
     fresh start.  A directory that held any state (checkpoint keys or
     WAL records) owns the contents: re-prefilling a recovered table
     would resurrect keys the pre-crash service had acked as deleted.

     Drawn keys queue per shard and run in chunks of up to
     [dequeue_batch] through the batched path, prefetch included.  A
     chunk runs when it is full, and every chunk runs once the queued
     keys could fill the remaining quota: each queued key adds at most
     one key, so no key is drawn that a key-by-key prefill would not
     draw, and each shard inserts the same keys in the same order —
     the same table, on the same arena slots. *)
  if cfg.prefill > 0 && recovered_records + recovered_ckpt_keys = 0 then begin
    let ops = Array.map (fun s -> s.register ()) shards in
    (* Only a durable service logs its prefill, so only it keeps the keys
       — in an int array: a volatile prefill keeps nothing beside the
       table itself. *)
    let logged =
      if cfg.data_dir = None then [||] else Array.make cfg.prefill 0
    in
    let rng = Oa_util.Splitmix.create (cfg.seed lxor 0x5eed) in
    let cap = max 1 cfg.dequeue_batch in
    let kinds = Array.make cap Insert and results = Array.make cap false in
    let queued = Array.init cfg.shards (fun _ -> Array.make cap 0) in
    let fill = Array.make cfg.shards 0 in
    let remaining = ref cfg.prefill and pending = ref 0 in
    let flush s =
      let n = fill.(s) and keys = queued.(s) in
      if n > 0 then begin
        (* the contexts' rule: one item takes the per-op path, so a
           [--batch 1] service never runs the batched path *)
        if n >= 2 then ops.(s).exec_batch ~n kinds keys results
        else results.(0) <- ops.(s).exec Insert keys.(0);
        for i = 0 to n - 1 do
          if results.(i) then begin
            if Array.length logged > 0 then
              logged.(cfg.prefill - !remaining) <- keys.(i);
            decr remaining
          end
        done;
        fill.(s) <- 0;
        pending := !pending - n
      end
    in
    while !remaining > 0 do
      if !pending = !remaining then
        for s = 0 to cfg.shards - 1 do
          flush s
        done
      else begin
        let k = 1 + Oa_util.Splitmix.below rng cfg.key_range in
        let s = shard_index ~shards:cfg.shards k in
        queued.(s).(fill.(s)) <- k;
        fill.(s) <- fill.(s) + 1;
        incr pending;
        if fill.(s) = cap then flush s
      end
    done;
    (* No later operation runs on these registrations: their final pass
       reclaims what they retired and clears the hazards they still
       publish, which would otherwise pin the nodes they last read. *)
    Array.iter (fun o -> o.quiesce ()) ops;
    (* The prefill is part of durable state: log it like any other batch
       of effective inserts, one append + one fsync per shard, so a
       restart without traffic still recovers the prefilled table. *)
    Array.iteri
      (fun s shard ->
        match shard.persist with
        | None -> ()
        | Some st ->
            let keys = Array.make cfg.prefill 0 and n = ref 0 in
            Array.iter
              (fun k ->
                if shard_index ~shards:cfg.shards k = s then begin
                  keys.(!n) <- k;
                  incr n
                end)
              logged;
            if !n > 0 then begin
              let wops = Array.make !n Oa_store.Record.Insert in
              let last, _ = Oa_store.Shard_store.append st ~n:!n wops keys in
              ignore (Oa_store.Shard_store.sync st ~upto:last)
            end)
      shards
  end;
  let t =
    {
      cfg;
      sink = obs;
      shards;
      route =
        { contexts = Array.make cfg.shards [||]; rejections = Atomic.make 0 };
      processed = Atomic.make 0;
      exec_errors = Atomic.make 0;
      wal_records = Atomic.make 0;
      wal_fsyncs = Atomic.make 0;
      ckpts = Atomic.make 0;
      recovered_records;
      recovered_ckpt_keys;
      replica = false;
      stopped = false;
    }
  in
  Array.iteri
    (fun s shard ->
      t.route.contexts.(s) <-
        Array.init cfg.workers_per_shard (fun _ -> make_context t shard))
    shards;
  t

(** A no-op kept for embedders: the contexts exist from {!create} on, and
    rounds run on the caller's domain. *)
let start (_ : t) = ()

(** Take each context in turn, run the scheme's
    {!Oa_core.Smr_intf.S.quiesce} on it — the final reclamation pass — and
    close it: a share that borrows it afterwards is answered BUSY.  A
    share already running finishes first, so callers whose round was
    underway get their answers (the drain guarantee).

    Persistent shards then write a final checkpoint — the service is
    quiescent, so the snapshot is exact — and close their WALs: a clean
    shutdown restarts from the checkpoint alone, replaying nothing.  A
    read-only shard ({!store_errors}) skips the checkpoint: its table may
    hold effects that never reached the log.  A failing final checkpoint
    is recorded there too rather than raised. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter
      (Array.iter (fun c ->
           Mutex.lock c.lock;
           if not c.closed then begin
             c.closed <- true;
             c.quiesce ()
           end;
           Mutex.unlock c.lock))
      t.route.contexts;
    (* A context's pass cannot free what another context's hazards still
       held when it ran; every context has now cleared its own, so a
       second pass frees the rest.  The contexts are closed: no share
       runs beside it. *)
    Array.iter
      (Array.iter (fun c ->
           Mutex.lock c.lock;
           c.quiesce ();
           Mutex.unlock c.lock))
      t.route.contexts;
    let rec_opt = Oa_obs.Sink.register t.sink in
    Array.iter
      (fun s ->
        match s.persist with
        | None -> ()
        | Some st ->
            (if Atomic.get s.store_error = None then
               match
                 Oa_store.Shard_store.checkpoint st ~keys:(s.contents ())
                   ~gauges:(s.mem_gauges ())
               with
               | _ -> (
                   Atomic.incr t.ckpts;
                   match rec_opt with
                   | None -> ()
                   | Some r -> Oa_obs.Recorder.incr r Oa_obs.Event.Ckpt)
               | exception e ->
                   Atomic.set s.store_error (Some (Printexc.to_string e)));
            Oa_store.Shard_store.close st)
      t.shards
  end

(* Double a full batch's staging buffers; a reused batch stops growing
   once it has seen its connection's largest round. *)
let grow (b : batch) =
  let cap = max 16 (2 * Array.length b.staged) in
  let staged = Array.make cap dummy_item in
  Array.blit b.staged 0 staged 0 b.n;
  let staged_shard = Array.make cap 0 in
  Array.blit b.staged_shard 0 staged_shard 0 b.n;
  b.staged <- staged;
  b.staged_shard <- staged_shard;
  b.order <- Array.make cap dummy_item

(** [stage t batch kind key] adds the operation to [batch]'s current
    round and returns its item; nothing runs before {!await}.  Read
    [item.busy], [item.failed] and [item.result] after {!await}. *)
let stage t (b : batch) kind key =
  if b.route != t.route then begin
    if b.n > 0 then
      invalid_arg "Service.stage: batch has a round staged for another service";
    b.route <- t.route;
    b.offsets <- Array.make (Array.length t.shards) 0;
    b.waiting <- Array.make (Array.length t.shards) 0
  end;
  if b.n = Array.length b.staged then grow b;
  let item = { kind; key; result = false; failed = false; busy = false } in
  b.staged.(b.n) <- item;
  b.staged_shard.(b.n) <- shard_index ~shards:t.cfg.shards key;
  b.n <- b.n + 1;
  item

(** {!stage} with the signature of the per-request handoff, whose [None]
    was an immediate BUSY.  Always [Some]: a rejection shows as
    [item.busy] after {!await}. *)
let submit t b kind key = Some (stage t b kind key)

(* Run [order.(lo .. hi-1)] on context [c], which the caller holds, and
   release it. *)
let run_share (b : batch) c lo hi =
  if c.closed then begin
    for j = lo to hi - 1 do
      let it = b.order.(j) in
      it.busy <- true;
      it.failed <- true
    done;
    Atomic.fetch_and_add b.route.rejections (hi - lo) |> ignore
  end
  else begin
    match c.run b.order lo (hi - lo) with
    | () -> ()
    | exception e ->
        Mutex.unlock c.lock;
        raise e
  end;
  Mutex.unlock c.lock

(** Run the staged round on the calling domain, each shard's share in
    submission order on a borrowed context of that shard, and return once
    every item is answered.  One [try_lock] pass runs every share whose
    shard has a free context; the others then wait, one shard at a time,
    for a context — the wait is observed as [shard_wait_ns].  The batch is
    then empty and ready for the next round. *)
let await (b : batch) =
  let n = b.n in
  if n > 0 then begin
    b.n <- 0;
    (* counting sort of the round by shard: [offsets.(s)] ends shard
       [s]'s share in [order], which starts where shard [s-1]'s ends *)
    let offsets = b.offsets in
    let shards = Array.length offsets in
    Array.fill offsets 0 shards 0;
    for i = 0 to n - 1 do
      let s = b.staged_shard.(i) in
      offsets.(s) <- offsets.(s) + 1
    done;
    for s = 1 to shards - 1 do
      offsets.(s) <- offsets.(s) + offsets.(s - 1)
    done;
    for i = n - 1 downto 0 do
      let s = b.staged_shard.(i) in
      offsets.(s) <- offsets.(s) - 1;
      b.order.(offsets.(s)) <- b.staged.(i)
    done;
    (* [offsets.(s)] now starts shard [s]'s share; [waiting] collects
       the shards whose contexts were all held *)
    let waiting = ref 0 in
    for s = 0 to shards - 1 do
      let lo = offsets.(s) in
      let hi = if s = shards - 1 then n else offsets.(s + 1) in
      if hi > lo then begin
        let cs = b.route.contexts.(s) in
        let k = Array.length cs in
        let j = ref 0 in
        while !j < k && not (Mutex.try_lock cs.((b.slot + !j) mod k).lock) do
          incr j
        done;
        if !j < k then run_share b cs.((b.slot + !j) mod k) lo hi
        else begin
          b.waiting.(!waiting) <- s;
          incr waiting
        end
      end
    done;
    for w = 0 to !waiting - 1 do
      let s = b.waiting.(w) in
      let hi = if s = shards - 1 then n else offsets.(s + 1) in
      let cs = b.route.contexts.(s) in
      let c = cs.(b.slot mod Array.length cs) in
      let t0 = Oa_runtime.Clock.now_ns () in
      Mutex.lock c.lock;
      I.obs_hist c.wait_hist (Oa_runtime.Clock.now_ns () - t0);
      run_share b c offsets.(s) hi
    done
  end

type reply = Done of bool | Rejected | Failed

(** One-shot synchronous call — the library embedding used by
    [examples/echo_shard.ml] and unit tests; connection handlers use
    {!stage}/{!await} directly to pipeline. *)
let call t kind key =
  let batch = new_batch () in
  let item = stage t batch kind key in
  await batch;
  if item.busy then Rejected
  else if item.failed then Failed
  else Done item.result

(* --- introspection --- *)

let config t = t.cfg
let sink t = t.sink
let processed t = Atomic.get t.processed
let busy_rejections t = Atomic.get t.route.rejections
let persistent t = t.cfg.data_dir <> None
let recovered_records t = t.recovered_records
let recovered_ckpt_keys t = t.recovered_ckpt_keys

(** The read-only shards, each with the WAL or checkpoint error that
    stopped its mutations, in shard order. *)
let store_errors t =
  List.filter_map
    (fun i -> Option.map (fun e -> (i, e)) (Atomic.get t.shards.(i).store_error))
    (List.init (Array.length t.shards) Fun.id)

(** The key set over all shards, sorted; quiescent only. *)
let contents t =
  let keys = Array.concat (Array.to_list (Array.map (fun s -> s.contents ()) t.shards)) in
  Array.sort compare keys;
  keys

(** Mark the service as a read-only follower: purely informational (the
    server's read-only guard and STATS report it); set by [serve
    --follow]. *)
let set_replica t v = t.replica <- v

let is_replica t = t.replica

(* --- replication reads (the primary side of log shipping) --- *)

type repl_fetch =
  | Repl_records of Oa_store.Record.t list * int
      (** records after [from] plus the shard's appended seq *)
  | Repl_snapshot of int * int
      (** [from] predates the checkpoint: (ckpt seq, key count) —
          resync via {!snap_fetch} *)

(** [repl_fetch t ~shard ~from ~max] serves a follower's record request;
    [None] when [shard] is out of range or the service is volatile. *)
let repl_fetch t ~shard ~from ~max =
  if shard < 0 || shard >= Array.length t.shards then None
  else
    match t.shards.(shard).persist with
    | None -> None
    | Some st -> (
        match Oa_store.Shard_store.fetch st ~from ~max with
        | Oa_store.Shard_store.Records (rs, last) -> Some (Repl_records (rs, last))
        | Oa_store.Shard_store.Snapshot_needed (seq, total) ->
            Some (Repl_snapshot (seq, total)))

(** One chunk of a shard's checkpoint key set:
    [(ckpt_seq, total, keys.(offset..))]; [None] as {!repl_fetch}. *)
let snap_fetch t ~shard ~offset ~max =
  if shard < 0 || shard >= Array.length t.shards then None
  else
    match t.shards.(shard).persist with
    | None -> None
    | Some st -> Some (Oa_store.Shard_store.snap_chunk st ~offset ~max)

(** Sum of one memory gauge over every shard arena (0 for unknown names);
    cheap atomic reads, safe mid-run. *)
let mem_gauge t name =
  Array.fold_left
    (fun acc s ->
      match List.assoc_opt name (s.mem_gauges ()) with
      | Some v -> acc + v
      | None -> acc)
    0 t.shards

let chunks_live t = mem_gauge t "mem_chunks_live"

(** The STATS response payload: a versioned flat vector (field order is
    part of the wire contract; new fields append, see docs/server.md).
    [| scheme; shards; workers_per_shard; 0; processed;
       busy; exec_errors; dequeue_batch; mem_chunks_live; mem_rss_bytes;
       persistent; wal_records; wal_fsyncs; checkpoints; replica |]
    where [scheme] indexes {!Schemes.all_ids}, [persistent]/[replica]
    are 0/1 flags, and slot 3 — the former queue capacity — reads 0. *)
let stats_payload t =
  let scheme_idx =
    let rec find i = function
      | [] -> -1
      | id :: rest -> if id = t.cfg.scheme then i else find (i + 1) rest
    in
    find 0 Schemes.all_ids
  in
  [|
    scheme_idx;
    t.cfg.shards;
    t.cfg.workers_per_shard;
    0;
    Atomic.get t.processed;
    Atomic.get t.route.rejections;
    Atomic.get t.exec_errors;
    t.cfg.dequeue_batch;
    chunks_live t;
    Oa_runtime.Sysinfo.rss_bytes ();
    (if persistent t then 1 else 0);
    Atomic.get t.wal_records;
    Atomic.get t.wal_fsyncs;
    Atomic.get t.ckpts;
    (if t.replica then 1 else 0);
  |]

let scheme_of_stats_payload (vs : int array) =
  if Array.length vs < 1 then None
  else List.nth_opt Schemes.all_ids vs.(0)

(* --- drain report (quiescent: call after [stop]) --- *)

type report = {
  processed : int;
  busy : int;
  exec_errors : int;
  sizes : int array;
  retired : int;  (** {!Oa_obs.Event.Retire} total across all shards *)
  reclaimed : int;  (** {!Oa_obs.Event.Reclaim} total *)
  smr : I.stats;  (** aggregate scheme statistics *)
  chunks_live : int;  (** arena chunks holding live slots, all shards *)
  committed_bytes : int;  (** arena bytes committed, all shards *)
  heap_bytes : int;  (** OCaml major heap *)
  rss_bytes : int;  (** process resident set; 0 if unreadable *)
  wal_records : int;  (** mutation records appended to the WALs *)
  wal_fsyncs : int;  (** group-commit fsyncs actually issued *)
  checkpoints : int;  (** checkpoints written (including the final one) *)
  recovered : int * int;  (** (WAL records replayed, ckpt keys) at start *)
  validation : (unit, string) result;
  conservation_ok : bool;
      (** [reclaimed <= retired] and [smr.recycled <= smr.retires]: no
          node reclaimed more often than retired (double free), checked
          after the final reclamation pass *)
}

let drain_report t : report =
  let sizes = Array.map (fun s -> s.size ()) t.shards in
  let smr =
    Array.fold_left
      (fun acc s -> I.add_stats acc (s.smr_stats ()))
      I.empty_stats t.shards
  in
  let retired = Oa_obs.Sink.total t.sink Oa_obs.Event.Retire in
  let reclaimed = Oa_obs.Sink.total t.sink Oa_obs.Event.Reclaim in
  let validation =
    let rec go i =
      if i >= Array.length t.shards then Ok ()
      else
        match t.shards.(i).validate () with
        | Ok () -> go (i + 1)
        | Error e -> Error (Printf.sprintf "shard %d: %s" i e)
    in
    go 0
  in
  {
    processed = Atomic.get t.processed;
    busy = Atomic.get t.route.rejections;
    exec_errors = Atomic.get t.exec_errors;
    sizes;
    retired;
    reclaimed;
    smr;
    chunks_live = chunks_live t;
    committed_bytes = mem_gauge t "mem_committed_bytes";
    heap_bytes = heap_bytes ();
    rss_bytes = Oa_runtime.Sysinfo.rss_bytes ();
    wal_records = Atomic.get t.wal_records;
    wal_fsyncs = Atomic.get t.wal_fsyncs;
    checkpoints = Atomic.get t.ckpts;
    recovered = (t.recovered_records, t.recovered_ckpt_keys);
    validation;
    conservation_ok =
      reclaimed <= retired && smr.I.recycled <= smr.I.retires
      && validation = Ok ();
  }

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "processed=%d busy=%d errors=%d size=%d retired=%d reclaimed=%d \
     in-flight=%d chunks-live=%d committed=%.1fMiB heap=%.1fMiB \
     rss=%.1fMiB conservation=%s"
    r.processed r.busy r.exec_errors
    (Array.fold_left ( + ) 0 r.sizes)
    r.retired r.reclaimed (r.retired - r.reclaimed) r.chunks_live
    (float_of_int r.committed_bytes /. 1048576.)
    (float_of_int r.heap_bytes /. 1048576.)
    (float_of_int r.rss_bytes /. 1048576.)
    (if r.conservation_ok then "ok" else "VIOLATED");
  if r.wal_records > 0 || r.checkpoints > 0 || r.recovered <> (0, 0) then
    Format.fprintf ppf " wal-records=%d wal-fsyncs=%d ckpts=%d recovered=%d+%d"
      r.wal_records r.wal_fsyncs r.checkpoints (snd r.recovered)
      (fst r.recovered)
