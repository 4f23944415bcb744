(** TCP front-end: accept loop, per-connection handlers, graceful
    shutdown.

    One domain per connection, blocking I/O, at most [max_conns] live
    connections: one past the cap is answered with a single BUSY frame
    (id 0) and closed, so a connection flood cannot exhaust OCaml's
    domain limit and take the accept loop down.  A handler reads one
    pipelined batch of frames, stages the shard operations in its
    connection's {!Service.batch}, answers PING/STATS inline, awaits the
    round's rendezvous, and writes every response in request order before
    reading again — so responses never interleave within a connection and
    ids stay matchable.

    Shutdown ({!shutdown}, idempotent, callable from a signal handler or
    another domain) proceeds strictly: stop accepting (close the listener),
    half-close every connection's read side so handlers finish their
    in-flight batch and exit, join the handlers, then stop the service —
    which drains the shard queues, runs every worker's final reclamation
    pass ({!Oa_core.Smr_intf.S.quiesce}) and joins.  Only then does
    {!serve} return; the caller reads the {!Service.drain_report} with
    the retire/reclaim conservation verdict. *)

type t = {
  service : Service.t;
  listen_fd : Unix.file_descr;
  port : int;
  max_pipeline : int;
  read_only : bool;
      (** reject INSERT/DELETE with ERROR — the replica's guard: its
          contents are owned by the log stream from the primary, and a
          local mutation would silently diverge from it *)
  max_conns : int;
  live : int Atomic.t;  (** connection handlers running *)
  stopping : bool Atomic.t;
  conns_m : Mutex.t;
  mutable conns : (Unix.file_descr * unit Domain.t) list;
  obs : Oa_obs.Recorder.t option;
}

(** [max_conns] defaults to 64: with the shard workers, the signal
    watcher and a replica's follower, that stays well under OCaml's limit
    of 128 live domains. *)
let create ?(port = 0) ?(backlog = 64) ?(max_pipeline = 256)
    ?(read_only = false) ?(max_conns = 64) ~service () =
  if max_conns <= 0 then invalid_arg "Server.create: max_conns must be positive";
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  {
    service;
    listen_fd = fd;
    port;
    max_pipeline;
    read_only;
    max_conns;
    live = Atomic.make 0;
    stopping = Atomic.make false;
    conns_m = Mutex.create ();
    conns = [];
    obs = Oa_obs.Sink.register (Service.sink service);
  }

let port t = t.port

(* The accept loop's recorder counts [Conn_open]; each handler registers
   its own recorder for the per-connection events (recorders are
   single-writer by design — one per domain). *)
let obs_incr t ev =
  match t.obs with None -> () | Some r -> Oa_obs.Recorder.incr r ev

let rec_incr o ev =
  match o with None -> () | Some r -> Oa_obs.Recorder.incr r ev

(* One request of a pipelined batch, as read: either staged for a shard
   worker, or answered inline. *)
type slot =
  | Pending of Service.item
  | Immediate of Protocol.body

let classify t batch (req : Protocol.request) =
  let submit kind key = Pending (Service.stage t.service batch kind key) in
  match req.Protocol.op with
  | Protocol.Get k -> submit Service.Get k
  | Protocol.Insert k | Protocol.Delete k when t.read_only ->
      ignore k;
      Immediate (Protocol.Error_r "read-only replica")
  | Protocol.Insert k -> submit Service.Insert k
  | Protocol.Delete k -> submit Service.Delete k
  | Protocol.Stats ->
      Immediate (Protocol.Stats_r (Service.stats_payload t.service))
  | Protocol.Ping -> Immediate Protocol.Pong
  | Protocol.Fetch { shard; from } -> (
      match
        Service.repl_fetch t.service ~shard ~from
          ~max:Protocol.max_fetch_records
      with
      | None -> Immediate (Protocol.Error_r "fetch: no such shard or volatile")
      | Some (Service.Repl_records (rs, last)) ->
          Immediate
            (Protocol.Records_r { last; records = Array.of_list rs })
      | Some (Service.Repl_snapshot (ckpt_seq, total)) ->
          Immediate (Protocol.Snap_needed_r { ckpt_seq; total }))
  | Protocol.Snap { shard; offset } -> (
      match
        Service.snap_fetch t.service ~shard ~offset ~max:Protocol.max_snap_keys
      with
      | None -> Immediate (Protocol.Error_r "snap: no such shard or volatile")
      | Some (ckpt_seq, total, keys) ->
          Immediate (Protocol.Snap_chunk_r { ckpt_seq; total; offset; keys }))

(* A request's reply once its round is done; [Req_enq] and [Req_busy] are
   counted here, after {!Service.await} has published the round and knows
   which requests the shard queues took. *)
let reply o = function
  | Immediate b -> b
  | Pending item ->
      if item.Service.busy then begin
        rec_incr o Oa_obs.Event.Req_busy;
        Protocol.Busy
      end
      else begin
        rec_incr o Oa_obs.Event.Req_enq;
        if item.Service.failed then Protocol.Error_r "shard operation failed"
        else Protocol.Bool item.Service.result
      end

let handle_conn t conn =
  let o = Oa_obs.Sink.register (Service.sink t.service) in
  (* one rendezvous for the connection's life, reused every round *)
  let batch = Service.new_batch () in
  let rec loop () =
    match
      Conn.recv_batch conn ~decode:Protocol.decode_request ~max:t.max_pipeline
    with
    | `Eof -> ()
    | `Fail e ->
        (* Malformed frame: answer with a protocol error and close.  The
           error is a value all the way here — nothing thrown. *)
        rec_incr o Oa_obs.Event.Proto_error;
        Protocol.encode_response (Conn.out conn)
          { Protocol.rid = 0; body = Protocol.Error_r (Protocol.error_to_string e) };
        Conn.flush conn
    | `Frames reqs ->
        let slots = List.map (fun r -> (r, classify t batch r)) reqs in
        Service.await batch;
        List.iter
          (fun ((req : Protocol.request), s) ->
            Protocol.encode_response (Conn.out conn)
              { Protocol.rid = req.Protocol.id; body = reply o s })
          slots;
        Conn.flush conn;
        loop ()
  in
  (try loop () with Unix.Unix_error _ -> ());
  Conn.close conn;
  rec_incr o Oa_obs.Event.Conn_close

(* A connection past the cap: one BUSY frame, then close.  The frame is a
   few bytes into a fresh socket's empty send buffer, so the write does
   not block the accept loop. *)
let refuse conn =
  (try
     Protocol.encode_response (Conn.out conn) { Protocol.rid = 0; body = Protocol.Busy };
     Conn.flush conn
   with Unix.Unix_error _ -> ());
  Conn.close conn

(** Blocking accept loop; returns once {!shutdown} has run and both the
    connection handlers and the service workers have drained and joined. *)
let serve t =
  let spawn conn =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.decr t.live)
          (fun () -> handle_conn t conn))
  in
  let rec accept_loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        let conn = Conn.make fd in
        (* only this loop increments [live], so the check cannot race
           past the cap *)
        (if Atomic.get t.live >= t.max_conns then refuse conn
         else begin
           Atomic.incr t.live;
           match spawn conn with
           | d ->
               obs_incr t Oa_obs.Event.Conn_open;
               Mutex.lock t.conns_m;
               t.conns <- (fd, d) :: t.conns;
               Mutex.unlock t.conns_m;
               (* [shutdown] may have walked the list between [accept] and
                  the insertion above; half-close late arrivals ourselves. *)
               if Atomic.get t.stopping then
                 (try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
                  with Unix.Unix_error _ -> ())
           | exception Failure _ ->
               (* the domain limit, reached below the cap by other domains
                  of the process *)
               Atomic.decr t.live;
               refuse conn
         end);
        accept_loop ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        if Atomic.get t.stopping then () else accept_loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _)
      when Atomic.get t.stopping ->
        ()
  in
  accept_loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* Drain: handlers finish their in-flight batches against half-closed
     sockets, then the service stops — queues close, workers execute what
     remains, quiesce, join. *)
  Mutex.lock t.conns_m;
  let conns = t.conns in
  Mutex.unlock t.conns_m;
  List.iter (fun (_, d) -> Domain.join d) conns;
  Service.stop t.service

(** Idempotent; safe from another domain or a signal handler.  The
    listener is woken with [shutdown(2)] rather than closed here: closing
    an fd another domain is blocked in [accept(2)] on does not reliably
    interrupt the accept, and the fd number could be reused under it.
    [serve] closes the fd once its loop has exited. *)
let shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Mutex.lock t.conns_m;
    let conns = t.conns in
    Mutex.unlock t.conns_m;
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      conns
  end
