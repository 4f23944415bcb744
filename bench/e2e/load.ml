(** The load generator: a closed loop of pipelined rounds per connection,
    and an open loop that sends on a fixed schedule from one domain while
    a second domain receives.

    Every reply is checked against {!Workload.Model}; BUSY, ERROR, a wrong
    answer, a reply out of order and a request unanswered at the deadline
    all count as failures. *)

module P = Oa_net.Protocol
module Conn = Oa_net.Conn
module Sv = Oa_net.Service
module W = Workload
module Clock = Oa_runtime.Clock

let s_to_ns s = int_of_float (s *. 1e9)

(** A growable int buffer: spans are kept in memory until the run ends. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let get t i = t.a.(i)
  let length t = t.n
end

type tally = { mutable attempted : int; mutable failed : int; mutable rss_max : int }

let tally () = { attempted = 0; failed = 0; rss_max = 0 }

let add_tally a b =
  {
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    rss_max = max a.rss_max b.rss_max;
  }

exception Lost

(* The generator's minor collections stop all of its domains at once; a
   16 MiB minor heap per domain makes them rare enough not to show in the
   latencies it measures.  Domains do not inherit [Gc.set], so every bench
   domain starts with it. *)
let quiet_gc () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 lsl 20 }

let spawn f = Domain.spawn (fun () -> quiet_gc (); f ())

(** [par n f] is [[f 0; ...; f (n-1)]], each on its own domain ([f 0] on
    the calling one). *)
let par n f =
  let others = List.init (n - 1) (fun i -> spawn (fun () -> f (i + 1))) in
  let first = f 0 in
  first :: List.map Domain.join others

(* --- closed loop --- *)

type closed = {
  port : int;
  pipeline : int;
  t_start : int;  (** end of the warm-up: windows count from here *)
  win_ns : int;
  windows : int;
  t_end : int;
  probe : bool;  (** send one STATS per second on this connection *)
  trace : bool;  (** record a span for each round begun in an odd window *)
}

type closed_result = {
  counts : int array;  (** correct replies completed in each window *)
  ct : tally;
  first : int;  (** the first round begun after the warm-up *)
  rounds : int;  (** rounds generated, warm-up included *)
  spans : Ibuf.t;  (** triples (round, start ns, end ns) *)
}

(** One connection of the closed loop: lane [lane] of [lanes]. *)
let run_closed (w : W.t) ~seed ~model ~lane ~lanes cfg =
  let g = W.gen w ~seed W.Closed ~lane ~lanes in
  let t = tally () in
  let counts = Array.make cfg.windows 0 in
  let spans = Ibuf.create () in
  let kinds = Array.make cfg.pipeline Sv.Get in
  let keys = Array.make cfg.pipeline 0 in
  let client = Proc.connect cfg.port in
  let conn = client.Oa_net.Client.conn in
  let out = Conn.out conn in
  let last_probe = ref 0 in
  let rounds = ref 0 and first = ref (-1) in
  (try
     while Clock.now_ns () < cfg.t_end do
       let base = !rounds * cfg.pipeline in
       for i = 0 to cfg.pipeline - 1 do
         W.next g;
         kinds.(i) <- g.W.kind;
         keys.(i) <- g.W.key;
         P.encode_request out { P.id = base + i; op = W.to_wire g.W.kind g.W.key }
       done;
       incr rounds;
       t.attempted <- t.attempted + cfg.pipeline;
       let t0 = Clock.now_ns () in
       if !first < 0 && t0 >= cfg.t_start then first := !rounds - 1;
       let probing = cfg.probe && t0 - !last_probe >= 1_000_000_000 in
       if probing then begin
         last_probe := t0;
         P.encode_request out { P.id = -1; op = P.Stats }
       end;
       let expect = cfg.pipeline + if probing then 1 else 0 in
       let got = ref 0 and next = ref 0 and correct = ref 0 in
       let handle (r : P.response) =
         incr got;
         if r.P.rid = -1 then (
           match r.P.body with
           | P.Stats_r vs -> t.rss_max <- max t.rss_max (Proc.rss_of_stats vs)
           | _ -> t.failed <- t.failed + 1)
         else begin
           let i = !next in
           incr next;
           match r.P.body with
           | P.Bool b when r.P.rid = base + i && W.Model.check model kinds.(i) keys.(i) b
             ->
               incr correct
           | _ -> t.failed <- t.failed + 1
         end
       in
       (try
          Conn.flush conn;
          while !got < expect do
            match Conn.recv_batch conn ~decode:P.decode_response ~max:(expect - !got) with
            | `Frames rs -> List.iter handle rs
            | `Eof | `Fail _ -> raise Lost
          done
        with Unix.Unix_error _ | Lost ->
          t.failed <- t.failed + (cfg.pipeline - !next);
          raise Lost);
       let t1 = Clock.now_ns () in
       if t1 >= cfg.t_start then begin
         let wi = (t1 - cfg.t_start) / cfg.win_ns in
         if wi < cfg.windows then counts.(wi) <- counts.(wi) + !correct
       end;
       if cfg.trace && t0 >= cfg.t_start && (t0 - cfg.t_start) / cfg.win_ns land 1 = 1
       then begin
         Ibuf.push spans (!rounds - 1);
         Ibuf.push spans t0;
         Ibuf.push spans t1
       end
     done
   with Lost -> ());
  Oa_net.Client.close client;
  let first = if !first < 0 then !rounds else !first in
  { counts; ct = t; first; rounds = !rounds; spans }

(** [closed_loop] drives [lanes] connections, one domain each, and
    returns their results in lane order; only lane 0 probes STATS. *)
let closed_loop w ~seed ~model ~lanes cfg =
  par lanes (fun lane ->
      run_closed w ~seed ~model ~lane ~lanes { cfg with probe = cfg.probe && lane = 0 })

(** Per-window throughput summed over connections, in replies/s. *)
let window_rates (rs : closed_result list) ~win_ns =
  match rs with
  | [] -> [||]
  | r0 :: _ ->
      Array.init (Array.length r0.counts) (fun i ->
          let n = List.fold_left (fun acc r -> acc + r.counts.(i)) 0 rs in
          float_of_int n *. 1e9 /. float_of_int win_ns)

(* --- open loop --- *)

type open_result = {
  lat : int array;  (** latency from each request's due time (ns), in due order *)
  late : int array;  (** sorted sender lateness, ns *)
  ot : tally;
}

(** Send [rate] requests per second over one connection for [warm_s +
    meas_s] seconds: the sender domain writes every request that has come
    due, the calling domain receives.  Request [j] is due at [t0 + j /
    rate]; its latency runs from then, so a stall also charges the
    requests queued behind it.  Only requests due after the warm-up are
    sampled. *)
let open_loop (w : W.t) ~seed ~model ~port ~rate ~warm_s ~meas_s =
  let period = 1e9 /. float_of_int rate in
  let warm_n = int_of_float (float_of_int rate *. warm_s) in
  let total = warm_n + int_of_float (float_of_int rate *. meas_s) in
  let meas_n = total - warm_n in
  let lat = Array.make meas_n 0 and late = Array.make meas_n 0 in
  let client = Proc.connect port in
  let conn = client.Oa_net.Client.conn in
  Unix.setsockopt_float (Conn.fd conn) Unix.SO_RCVTIMEO 0.5;
  let t0 = Clock.now_ns () + 2_000_000 in
  let due j = t0 + int_of_float (float_of_int j *. period) in
  let t_end = due total in
  let sent = Atomic.make 0 and probes = Atomic.make 0 and done_ = Atomic.make false in
  let sender =
    spawn (fun () ->
        let g = W.gen w ~seed W.Open ~lane:0 ~lanes:1 in
        let out = Conn.out conn in
        let next_probe = ref (t0 + 1_000_000_000) in
        let i = ref 0 in
        (try
           while !i < total do
             let now = Clock.now_ns () in
             let n_due =
               if now < t0 then 0
               else min total (1 + int_of_float (float_of_int (now - t0) /. period))
             in
             if n_due > !i then begin
               for j = !i to n_due - 1 do
                 W.next g;
                 P.encode_request out { P.id = j; op = W.to_wire g.W.kind g.W.key };
                 if j >= warm_n then late.(j - warm_n) <- now - due j
               done;
               if now >= !next_probe then begin
                 next_probe := !next_probe + 1_000_000_000;
                 P.encode_request out { P.id = -1; op = P.Stats };
                 Atomic.incr probes
               end;
               i := n_due;
               Atomic.set sent n_due;
               Conn.flush conn
             end
             else Unix.sleepf (float_of_int (due !i - now) /. 1e9)
           done
         with Unix.Unix_error _ -> ());
        Atomic.set done_ true)
  in
  let g = W.gen w ~seed W.Open ~lane:0 ~lanes:1 in
  let t = tally () in
  let j = ref 0 and probes_got = ref 0 in
  let deadline = t_end + 5_000_000_000 in
  let finished () =
    Atomic.get done_ && !j >= Atomic.get sent && !probes_got >= Atomic.get probes
  in
  (try
     while not (finished ()) do
       match Conn.recv_batch conn ~decode:P.decode_response ~max:256 with
       | `Frames rs ->
           let arrival = Clock.now_ns () in
           List.iter
             (fun (r : P.response) ->
               if r.P.rid < 0 then (
                 incr probes_got;
                 match r.P.body with
                 | P.Stats_r vs -> t.rss_max <- max t.rss_max (Proc.rss_of_stats vs)
                 | _ -> t.failed <- t.failed + 1)
               else if r.P.rid <> !j then raise Lost
               else begin
                 W.next g;
                 (match r.P.body with
                 | P.Bool b when W.Model.check model g.W.kind g.W.key b -> ()
                 | _ -> t.failed <- t.failed + 1);
                 if !j >= warm_n then lat.(!j - warm_n) <- arrival - due !j;
                 incr j
               end)
             rs
       | `Eof | `Fail _ -> raise Lost
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
           if Clock.now_ns () > deadline then raise Lost
     done
   with Lost | Unix.Unix_error _ -> ());
  (* on a lost connection, wake a sender blocked in write before joining
     it; the descriptor is closed only once no domain uses it *)
  if not (finished ()) then
    (try Unix.shutdown (Conn.fd conn) Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Domain.join sender;
  Oa_net.Client.close client;
  let sent = Atomic.get sent in
  t.attempted <- sent;
  t.failed <- t.failed + (sent - !j);
  let late = Array.sub late 0 (max 0 (min meas_n (sent - warm_n))) in
  Array.sort Int.compare late;
  { lat = Array.sub lat 0 (max 0 (min meas_n (!j - warm_n))); late; ot = t }
