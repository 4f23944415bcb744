(** The four workloads, their seeded request streams, and the sequential
    model every reply is checked against.

    A stream is a pure function of (seed, workload, phase, lane): a replay
    that rebuilds the generator with the same arguments sees exactly the
    requests the live run sent, so the traced ladder never stores them. *)

module Sv = Oa_net.Service
module Splitmix = Oa_util.Splitmix

type dist = Uniform | Zipf of float

type t = {
  name : string;
  keys : int;  (** keys are drawn from [1..keys] *)
  prefill : int;
  delta : int;  (** arena slack per shard, as [serve --delta] *)
  read_pct : int;
  insert_pct : int;  (** deletes take the remainder *)
  dist : dist;
  rate : int option;
      (** a server workload's open-loop requests per second, fixed here
          and never derived at run time.  Each is the rate the sweep rule
          of bench/e2e/README.md picks; [--repeat] reruns the sweep and
          says when the rule would now pick another.  [None]: no server. *)
  durable : bool;  (** serve with [--data-dir]; kill, restart, verify *)
}

let all =
  [
    {
      name = "kv_read_large";
      keys = 1_000_000;
      prefill = 500_000;
      delta = 50_000;
      read_pct = 90;
      insert_pct = 5;
      dist = Uniform;
      rate = Some 100_000;
      durable = false;
    };
    {
      name = "kv_update_hot";
      keys = 10_000;
      prefill = 5_000;
      delta = 8_000;
      read_pct = 20;
      insert_pct = 40;
      dist = Zipf 0.99;
      rate = Some 100_000;
      durable = false;
    };
    {
      name = "kv_durable";
      keys = 100_000;
      prefill = 50_000;
      (* At the default 8 000, restarting after SIGKILL can raise
         Arena_exhausted while the WAL replays. *)
      delta = 50_000;
      (* Reads dominate so that the median open-loop request does not wait
         for an fsync.  At 50/25/25 a quarter of the requests are
         effective mutations, and the replies queued behind their fsyncs
         on the one connection bring the share that waits to about half:
         p50 then sits on the jump between the two modes and swung by
         18-50 % from run to run.  In the closed loop nearly every shard
         batch (about 64 requests) still holds an effective mutation, so
         nearly every one still pays an append and an fsync. *)
      read_pct = 90;
      insert_pct = 5;
      dist = Uniform;
      rate = Some 12_500;
      durable = true;
    };
    {
      name = "core_update";
      keys = 20_000;
      prefill = 10_000;
      delta = 8_000;
      read_pct = 50;
      insert_pct = 25;
      dist = Uniform;
      rate = None;
      durable = false;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let server w = w.rate <> None

(** The open-loop rate of a server workload. *)
let rate w =
  match w.rate with Some r -> r | None -> invalid_arg (w.name ^ ": no open loop")

(** The smoke variant: the same mix and skew over a small table, at a rate
    any host sustains. *)
let smoke w =
  {
    w with
    keys = max 2_000 (w.keys / 100);
    prefill = max 1_000 (w.prefill / 100);
    rate = Option.map (min 20_000) w.rate;
  }

(** The server every kv workload runs: OA, two shards of one worker each,
    so that load (two connections) and service fit the two-core reference
    host.  [serve_args] and [service_config] describe the same server —
    the first as flags for the child process, the second as the
    {!Oa_net.Service.config} those flags produce, for in-process replays. *)
let shards = 2

let serve_args w ~data_dir ~metrics =
  [
    (* a server orphaned by a killed bench still exits on its own *)
    "--duration"; "600";
    "--scheme"; "oa";
    "--shards"; string_of_int shards;
    "--workers"; "1";
    "--keys"; string_of_int w.keys;
    "--prefill"; string_of_int w.prefill;
    "--delta"; string_of_int w.delta;
  ]
  @ (match data_dir with Some d -> [ "--data-dir"; d ] | None -> [])
  @ match metrics with Some f -> [ "--metrics"; f ] | None -> []

(* [oa_cli serve] seeds its prefill with 1 and leaves every other field
   at its default. *)
let service_config w ~data_dir =
  {
    Sv.default_config with
    Sv.scheme = Oa_smr.Schemes.Optimistic_access;
    shards;
    workers_per_shard = 1;
    prefill = w.prefill;
    key_range = w.keys;
    delta = w.delta;
    seed = 1;
    data_dir;
  }

let mix_string w =
  Printf.sprintf "%d/%d/%d" w.read_pct w.insert_pct
    (100 - w.read_pct - w.insert_pct)

let dist_string w =
  match w.dist with
  | Uniform -> "uniform"
  | Zipf theta -> Printf.sprintf "zipf(%.2f)" theta

(* Zipfian ranks by Gray et al.'s method ("Quickly generating
   billion-record synthetic databases", SIGMOD 1994; YCSB's generator).
   [Oa_workload.Key_dist.zipf]'s power-of-uniform shortcut is not used:
   at theta = 0.99 it sends about 90% of draws to rank 1. *)
type zipf = { n : int; alpha : float; zetan : float; eta : float; two : float }

let zipf_make n theta =
  let zeta k =
    let s = ref 0.0 in
    for i = 1 to k do
      s := !s +. (1.0 /. (float_of_int i ** theta))
    done;
    !s
  in
  let zetan = zeta n in
  {
    n;
    alpha = 1.0 /. (1.0 -. theta);
    zetan;
    eta =
      (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
      /. (1.0 -. (zeta 2 /. zetan));
    two = 1.0 +. (0.5 ** theta);
  }

let zipf_draw z rng =
  let u = Splitmix.float rng in
  let uz = u *. z.zetan in
  if uz < 1.0 then 1
  else if uz < z.two then 2
  else
    min z.n
      (1 + int_of_float (float_of_int z.n *. (((z.eta *. u) -. z.eta +. 1.0) ** z.alpha)))

(** One request stream.  Lane [lane] of [lanes] owns the keys congruent
    to [lane] modulo [lanes]: it is their only writer, so its replies can
    be checked against a sequential model of its keys. *)
type gen = {
  w : t;
  rng : Splitmix.t;
  lane : int;
  lanes : int;
  sub : int;  (** ranks per lane *)
  zipf : zipf option;
  mutable kind : Sv.op_kind;
  mutable key : int;
}

(* Phases draw from distinct streams so that the closed loop, the open
   loop and the in-process workload never replay each other's keys. *)
type phase = Closed | Open | Core | Prefill

let phase_index = function Closed -> 1 | Open -> 2 | Core -> 3 | Prefill -> 4

let stream_seed w ~seed phase lane =
  Hashtbl.hash (seed, w.name, phase_index phase, lane)

let gen w ~seed phase ~lane ~lanes =
  let sub = w.keys / lanes in
  {
    w;
    rng = Splitmix.create (stream_seed w ~seed phase lane);
    lane;
    lanes;
    sub;
    zipf = (match w.dist with Zipf theta -> Some (zipf_make sub theta) | Uniform -> None);
    kind = Sv.Get;
    key = 0;
  }

(** Draw the next request into [g.kind] and [g.key]. *)
let next g =
  let r = Splitmix.below g.rng 100 in
  g.kind <-
    (if r < g.w.read_pct then Sv.Get
     else if r < g.w.read_pct + g.w.insert_pct then Sv.Insert
     else Sv.Delete);
  let rank =
    match g.zipf with
    | None -> 1 + Splitmix.below g.rng g.sub
    | Some z -> zipf_draw z g.rng
  in
  g.key <- ((rank - 1) * g.lanes) + g.lane + 1

let to_wire kind key =
  match kind with
  | Sv.Get -> Oa_net.Protocol.Get key
  | Sv.Insert -> Oa_net.Protocol.Insert key
  | Sv.Delete -> Oa_net.Protocol.Delete key

(** The sequential model: one byte per key, unknown until a reply or the
    prefill reveals it.  Lanes write disjoint keys, so domains share one
    model without locking. *)
module Model = struct
  type t = Bytes.t

  let unknown = '\000'
  let absent = '\001'
  let present = '\002'

  let create keys = Bytes.make (keys + 1) unknown
  let set m key p = Bytes.set m key (if p then present else absent)
  let known m key = Bytes.get m key <> unknown
  let is_present m key = Bytes.get m key = present

  (* Armed by [--inject-wrong]: the next checkable reply is flipped before
     the check, proving that a wrong answer fails the run.  The flag is
     cleared when the flip happens. *)
  let inject = Atomic.make false

  (* Replies that contradicted the model, over the whole process: the
     exit code tells a wrong answer from every other failure. *)
  let wrong = Atomic.make 0

  (** Apply reply [b] of operation [kind] on [key]; [false] (and one more
      [wrong]) when it contradicts the key's known state.  A set
      operation's reply is [true] iff it found (GET, DELETE) or did not
      find (INSERT) the key. *)
  let check m kind key b =
    let s = Bytes.get m key in
    let b =
      if s <> unknown && Atomic.get inject && Atomic.compare_and_set inject true false
      then not b
      else b
    in
    let ok =
      s = unknown
      ||
      match kind with
      | Sv.Get | Sv.Delete -> b = (s = present)
      | Sv.Insert -> b = (s = absent)
    in
    (match kind with
    | Sv.Get -> set m key b
    | Sv.Insert -> set m key true
    | Sv.Delete -> set m key false);
    if not ok then Atomic.incr wrong;
    ok
end
