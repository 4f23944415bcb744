(** The [oa_cli serve] child process: spawn, wait for the first answered
    PING, probe STATS, stop with SIGINT (the exit code carries the
    conservation verdict) or kill with SIGKILL.

    A separate process means the load generator and the server never
    share a garbage collector.  Every child is registered until reaped,
    and an [at_exit] hook kills and reaps whatever is left, so the bench
    never leaves a server behind — nor the temporary directory a run's
    servers write their data into ({!with_tmp}). *)

module P = Oa_net.Protocol
module C = Oa_net.Client
module Clock = Oa_runtime.Clock

type t = {
  pid : int;
  port : int;
  out : Unix.file_descr;  (** the child's stdout *)
  mutable reaped : bool;
}

let live : t list ref = ref []

let forget t =
  t.reaped <- true;
  live := List.filter (fun c -> c != t) !live;
  try Unix.close t.out with Unix.Unix_error _ -> ()

let kill t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let rec wait () =
      try ignore (Unix.waitpid [] t.pid)
      with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ();
    forget t
  end

let rm_rf path =
  let rec go p =
    match Unix.lstat p with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
    | _ -> Sys.remove p
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  in
  go path

(* Temporary directories in use: [exit] (on SIGINT or SIGTERM too) runs
   the at_exit hook but not the [with_tmp] that would remove them. *)
let tmps : string list ref = ref []

let () =
  at_exit (fun () ->
      List.iter kill !live;
      List.iter (fun d -> try rm_rf d with Unix.Unix_error _ | Sys_error _ -> ()) !tmps)

(* Read the child's stdout until [f line] returns [Some v]; [None] on EOF
   or when [deadline] passes. *)
let read_until fd ~deadline f =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec scan () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> (
        let line = Buffer.sub buf 0 i in
        let rest = Buffer.sub buf (i + 1) (Buffer.length buf - i - 1) in
        Buffer.clear buf;
        Buffer.add_string buf rest;
        match f line with Some v -> Some v | None -> scan ())
    | None ->
        let left = float_of_int (deadline - Clock.now_ns ()) /. 1e9 in
        if left <= 0.0 then None
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  scan ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> scan ()
  in
  scan ()

let connect port =
  let c = C.connect ~port () in
  (* a hung server must fail the run, not stall it *)
  Unix.setsockopt_float (Oa_net.Conn.fd c.C.conn) Unix.SO_RCVTIMEO 10.0;
  c

let ping port =
  match connect port with
  | exception Unix.Unix_error _ -> false
  | c ->
      let ok =
        match C.call_one c { P.id = 0; op = P.Ping } with
        | Ok { P.body = P.Pong; _ } -> true
        | Ok _ | Error _ -> false
        | exception Unix.Unix_error _ -> false
      in
      C.close c;
      ok

(** [spawn ~exe args] starts [exe serve --port 0 args] and returns the
    child with the seconds from spawn to the first answered PING. *)
let spawn ~exe args =
  let t0 = Clock.now_ns () in
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((exe :: "serve" :: "--port" :: "0" :: args)) in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let deadline = t0 + 120_000_000_000 in
  let port =
    read_until r ~deadline (fun line ->
        match String.index_opt line ':' with
        | Some i when String.length line > 8 && String.sub line 0 8 = "serving " -> (
            let rest = String.sub line (i + 1) (String.length line - i - 1) in
            match String.index_opt rest ' ' with
            | Some j -> int_of_string_opt (String.sub rest 0 j)
            | None -> int_of_string_opt rest)
        | _ -> None)
  in
  let t = { pid; port = Option.value port ~default:0; out = r; reaped = false } in
  live := t :: !live;
  if port = None then begin
    kill t;
    failwith "serve did not report its port"
  end;
  let rec await () =
    if ping t.port then ()
    else if Clock.now_ns () > deadline then begin
      kill t;
      failwith "serve did not answer PING"
    end
    else begin
      Unix.sleepf 0.001;
      await ()
    end
  in
  await ();
  (t, float_of_int (Clock.now_ns () - t0) /. 1e9)

(** SIGINT, then wait up to [timeout] seconds for a graceful drain.
    Returns whether serve exited 0 — its conservation verdict — plus its
    closing stdout (the drain report). *)
let stop ?(timeout = 60.0) t =
  (try Unix.kill t.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = Clock.now_ns () + int_of_float (timeout *. 1e9) in
  let lines = ref [] in
  ignore
    (read_until t.out ~deadline (fun line ->
         lines := line :: !lines;
         None));
  let rec exited () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Clock.now_ns () > deadline then false
        else begin
          Unix.sleepf 0.01;
          exited ()
        end
    | _, st ->
        forget t;
        st = Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> exited ()
  in
  let ok = exited () in
  if not ok then kill t;
  (ok, List.rev !lines)

(** [with_tmp ~out_dir name f] runs [f] with a fresh temporary directory under
    [out_dir] (data directories, replayed WALs), removed afterwards —
    after killing any server [f] left running, e.g. by raising. *)
let with_tmp ~out_dir name f =
  let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%s-%d" name (Unix.getpid ())) in
  rm_rf tmp;
  Oa_store.Wal.mkdir_p tmp;
  tmps := tmp :: !tmps;
  let finally () =
    List.iter kill !live;
    tmps := List.filter (( <> ) tmp) !tmps;
    try rm_rf tmp with Unix.Unix_error _ | Sys_error _ -> ()
  in
  Fun.protect ~finally (fun () -> f tmp)

(** Resident set size reported by a STATS reply (field 9, bytes). *)
let rss_of_stats (vs : int array) = if Array.length vs > 9 then vs.(9) else 0
