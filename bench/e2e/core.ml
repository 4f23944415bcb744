(** core_update: the paper's own object with the network, queue, batching
    and store bypassed — one OA hash table on the real backend, built by
    {!Oa_net.Service.make_shard} exactly as a server shard is, driven by
    per-operation calls from two domains. *)

module Sv = Oa_net.Service
module W = Workload
module L = Load
module Clock = Oa_runtime.Clock

let domains = 2

(* One shard served by [domains] workers: make_shard then sizes the arena
   and derives the SMR thresholds for two concurrent threads. *)
let config (w : W.t) =
  {
    (W.service_config w ~data_dir:None) with
    Sv.shards = 1;
    workers_per_shard = domains;
  }

(** Build the table and insert [w.prefill] distinct seeded keys.  The
    returned model knows every key's state: the bench did the prefill. *)
let build ?(obs = Oa_obs.Sink.disabled) (w : W.t) ~seed =
  let shard, _ = Sv.make_shard ~obs ~index:0 ~cfg:(config w) in
  let ops = shard.Sv.register () in
  let model = W.Model.create w.keys in
  for k = 1 to w.keys do
    W.Model.set model k false
  done;
  let rng = Oa_util.Splitmix.create (W.stream_seed w ~seed W.Prefill 0) in
  let remaining = ref w.prefill in
  while !remaining > 0 do
    let k = 1 + Oa_util.Splitmix.below rng w.keys in
    if ops.Sv.exec Sv.Insert k then begin
      decr remaining;
      W.Model.set model k true
    end
  done;
  (shard, model)

(** How a domain times its operations.  [Sampled]: the first of every 64,
    for the latency percentiles.  [Per_kind]: in the traced run, every
    operation begun in an odd window, summed by kind less [overhead] (the
    cost of the clock pair); the even windows run untimed. *)
type timing = Sampled | Per_kind of { overhead : int }

let kind_index = function Sv.Get -> 0 | Sv.Insert -> 1 | Sv.Delete -> 2

type result = {
  counts : int array;  (** correct operations completed per window *)
  lat : int array list;  (** [Sampled]: each domain's latencies (ns), in time order *)
  kind_ns : int array;  (** [Per_kind]: summed time by {!kind_index} *)
  kind_n : int array;
  ct : L.tally;
}

(* Samples per domain, preallocated so that the process's RSS does not
   grow with throughput; later samples are dropped past it. *)
let sample_cap = 1 lsl 21

(* One domain's loop, in blocks of 64 operations; each block's correct
   operations are credited to the window it ends in. *)
let worker (w : W.t) ~seed shard model ~timing ~lane ~t_start ~t_end ~win_ns ~windows =
  let ops = shard.Sv.register () in
  let g = W.gen w ~seed W.Core ~lane ~lanes:domains in
  let counts = Array.make windows 0 in
  let lat = Array.make (if timing = Sampled then sample_cap else 0) 0 and n = ref 0 in
  let kind_ns = Array.make 3 0 and kind_n = Array.make 3 0 in
  let t = L.tally () in
  let now = ref (Clock.now_ns ()) in
  while !now < t_end do
    let block_timed =
      match timing with
      | Sampled -> false
      | Per_kind _ -> !now >= t_start && (!now - t_start) / win_ns land 1 = 1
    in
    let correct = ref 0 in
    for i = 0 to 63 do
      W.next g;
      let kind = g.W.kind and key = g.W.key in
      let timed = block_timed || (i = 0 && timing = Sampled) in
      let a = if timed then Clock.now_ns () else 0 in
      (match ops.Sv.exec kind key with
      | r -> if W.Model.check model kind key r then incr correct else t.failed <- t.failed + 1
      | exception _ -> t.failed <- t.failed + 1);
      if timed then begin
        let dt = Clock.now_ns () - a in
        match timing with
        | Sampled ->
            if a >= t_start && !n < sample_cap then begin
              lat.(!n) <- dt;
              incr n
            end
        | Per_kind { overhead } ->
            let k = kind_index kind in
            kind_ns.(k) <- kind_ns.(k) + max 0 (dt - overhead);
            kind_n.(k) <- kind_n.(k) + 1
      end
    done;
    t.attempted <- t.attempted + 64;
    now := Clock.now_ns ();
    if !now >= t_start then begin
      let wi = (!now - t_start) / win_ns in
      if wi < windows then counts.(wi) <- counts.(wi) + !correct
    end
  done;
  ops.Sv.quiesce ();
  { counts; lat = [ Array.sub lat 0 !n ]; kind_ns; kind_n; ct = t }

let run w ~seed shard model ~timing ~warm_s ~win_s ~windows =
  let win_ns = L.s_to_ns win_s in
  let t_start = Clock.now_ns () + L.s_to_ns warm_s in
  let t_end = t_start + (windows * win_ns) in
  let all =
    L.par domains (fun lane ->
        worker w ~seed shard model ~timing ~lane ~t_start ~t_end ~win_ns ~windows)
  in
  let sum f = Array.init (Array.length (f (List.hd all))) (fun i ->
      List.fold_left (fun acc r -> acc + (f r).(i)) 0 all)
  in
  {
    counts = sum (fun r -> r.counts);
    lat = List.concat_map (fun r -> r.lat) all;
    kind_ns = sum (fun r -> r.kind_ns);
    kind_n = sum (fun r -> r.kind_n);
    ct = List.fold_left (fun acc r -> L.add_tally acc r.ct) (L.tally ()) all;
  }

(** The structure's own oracles after the run: the table validates and
    no node was recycled more often than it was retired. *)
let verdict shard =
  let st = shard.Sv.smr_stats () in
  match shard.Sv.validate () with
  | Error e -> Error ("validate: " ^ e)
  | Ok () when st.Oa_core.Smr_intf.recycled > st.Oa_core.Smr_intf.retires ->
      Error "conservation: recycled > retires"
  | Ok () -> Ok ()
