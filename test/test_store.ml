(* Durability tests: WAL record framing (round-trip, torn tail, CRC
   flips), segment scan/rotation, checkpoint round-trip, and the two
   end-to-end properties the store exists for — a restarted service
   recovers exactly what it acked, and a --follow replica converges to
   the primary's contents (docs/persistence.md). *)

module R = Oa_store.Record
module W = Oa_store.Wal
module Ck = Oa_store.Checkpoint
module Sv = Oa_net.Service
module Srv = Oa_net.Server
module C = Oa_net.Client
module P = Oa_net.Protocol

(* --- tmp dirs --- *)

let rm_rf dir =
  let rec go path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> go (Filename.concat path e)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  in
  go dir

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "oa-test-store-%d-%d" (Unix.getpid ()) !counter)
    in
    rm_rf d;
    Unix.mkdir d 0o755;
    d

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* --- record framing --- *)

let encode_one r =
  let buf = Buffer.create R.frame_len in
  R.encode buf r;
  Buffer.to_bytes buf

let record_gen =
  QCheck.Gen.(
    let* seq = map abs (int_bound ((1 lsl 40) - 1)) in
    let* key = map abs (int_bound ((1 lsl 40) - 1)) in
    let* op = map (fun b -> if b then R.Insert else R.Delete) bool in
    return { R.seq; op; key })

let qcheck_roundtrip =
  QCheck.Test.make ~count:500 ~name:"record encode/decode round-trip"
    (QCheck.make record_gen) (fun r ->
      let b = encode_one r in
      match R.decode b ~off:0 ~avail:(Bytes.length b) with
      | R.Complete (r', consumed) -> r' = r && consumed = R.frame_len
      | R.Incomplete | R.Bad _ -> false)

(* every strict prefix of a frame decodes as Incomplete: a torn tail is
   recognised, never misread *)
let qcheck_torn_prefix =
  QCheck.Test.make ~count:200 ~name:"every torn prefix is Incomplete"
    (QCheck.make
       QCheck.Gen.(
         let* r = record_gen in
         let* cut = int_range 0 (R.frame_len - 1) in
         return (r, cut)))
    (fun (r, cut) ->
      let b = Bytes.sub (encode_one r) 0 cut in
      match R.decode b ~off:0 ~avail:cut with
      | R.Incomplete -> true
      | R.Complete _ | R.Bad _ -> false)

(* flipping any single byte of a frame must not yield the original
   record: either the CRC (or length/op validation) catches it, or — for
   flips in the length field — the frame reads as incomplete *)
let qcheck_crc_flip =
  QCheck.Test.make ~count:300 ~name:"single byte flip never passes as-is"
    (QCheck.make
       QCheck.Gen.(
         let* r = record_gen in
         let* pos = int_range 0 (R.frame_len - 1) in
         let* bit = int_range 0 7 in
         return (r, pos, bit)))
    (fun ((r, pos, bit)) ->
      let b = encode_one r in
      Bytes.set b pos
        (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      match R.decode b ~off:0 ~avail:(Bytes.length b) with
      | R.Bad _ | R.Incomplete -> true
      | R.Complete (r', _) -> r' <> r)

let test_multi_decode () =
  let rs =
    List.init 7 (fun i ->
        {
          R.seq = i + 1;
          op = (if i mod 2 = 0 then R.Insert else R.Delete);
          key = 100 + i;
        })
  in
  let buf = Buffer.create 256 in
  List.iter (R.encode buf) rs;
  let b = Buffer.to_bytes buf in
  let rec walk off acc =
    if off >= Bytes.length b then List.rev acc
    else
      match R.decode b ~off ~avail:(Bytes.length b - off) with
      | R.Complete (r, consumed) -> walk (off + consumed) (r :: acc)
      | R.Incomplete | R.Bad _ -> Alcotest.fail "decode stopped early"
  in
  let got = walk 0 [] in
  Alcotest.(check int) "all records decoded" (List.length rs)
    (List.length got);
  List.iter2
    (fun a b -> if a <> b then Alcotest.fail "record mismatch")
    rs got

(* --- wal append/scan --- *)

let test_wal_roundtrip () =
  with_dir @@ fun dir ->
  (* tiny segments so the appends rotate several times *)
  let w = W.create ~dir ~segment_bytes:128 ~start_seq:0 () in
  let appended = ref [] in
  let seq = ref 0 in
  for g = 0 to 9 do
    let n = 1 + (g mod 4) in
    let ops =
      Array.init n (fun i -> if (g + i) mod 3 = 0 then R.Delete else R.Insert)
    in
    let keys = Array.init n (fun i -> (g * 10) + i + 1) in
    let last, _rotated = W.append w ~n ops keys in
    for i = 0 to n - 1 do
      incr seq;
      appended := { R.seq = !seq; op = ops.(i); key = keys.(i) } :: !appended
    done;
    Alcotest.(check int) "append returns the last assigned seq" !seq last;
    ignore (W.sync w ~upto:last)
  done;
  W.close w;
  let got = ref [] in
  let scan = W.scan_dir ~dir (fun r -> got := r :: !got) in
  Alcotest.(check int) "scan sees every appended record"
    (List.length !appended) scan.W.records;
  Alcotest.(check int) "scan_last_seq" !seq scan.W.scan_last_seq;
  Alcotest.(check (list (pair int int))) "no tears" [] scan.W.tears;
  List.iter2
    (fun a b -> if a <> b then Alcotest.fail "scan record mismatch")
    (List.rev !appended) (List.rev !got)

let test_wal_torn_tail () =
  with_dir @@ fun dir ->
  let w = W.create ~dir ~segment_bytes:4096 ~start_seq:0 () in
  let ops = Array.make 5 R.Insert and keys = Array.init 5 (fun i -> i + 1) in
  let last, _ = W.append w ~n:5 ops keys in
  ignore (W.sync w ~upto:last);
  W.close w;
  (* simulate a crash mid-append: a partial frame at the newest tail *)
  let segs = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let newest = Filename.concat dir (List.hd (List.rev segs)) in
  let torn = Bytes.sub (encode_one { R.seq = 6; op = R.Insert; key = 6 }) 0 11 in
  let fd = Unix.openfile newest [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
  ignore (Unix.write fd torn 0 (Bytes.length torn));
  Unix.close fd;
  let got = ref 0 in
  let scan = W.scan_dir ~dir (fun _ -> incr got) in
  Alcotest.(check int) "records before the tear survive" 5 scan.W.records;
  Alcotest.(check int) "the tear is reported" 1 (List.length scan.W.tears);
  Alcotest.(check int) "last_seq stops at the tear" 5 scan.W.scan_last_seq

(* A directory fsync that cannot run is an error, not a no-op: only a
   filesystem's EINVAL (no directory fsync) is tolerated. *)
let test_sync_dir_missing () =
  with_dir @@ fun dir ->
  W.sync_dir dir;
  match W.sync_dir (Filename.concat dir "missing") with
  | () -> Alcotest.fail "sync_dir on a missing directory returned"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- checkpoint --- *)

let test_checkpoint_roundtrip () =
  with_dir @@ fun dir ->
  let t =
    {
      Ck.seq = 12_345;
      keys = Array.init 100 (fun i -> (i * 7) + 1);
      gauges = [ ("mem_committed_bytes", 4096); ("chunks_live", 3) ];
    }
  in
  Ck.write ~dir t;
  (match Ck.read ~dir with
  | None -> Alcotest.fail "checkpoint did not read back"
  | Some t' ->
      Alcotest.(check int) "seq" t.Ck.seq t'.Ck.seq;
      Alcotest.(check (array int)) "keys" t.Ck.keys t'.Ck.keys;
      Alcotest.(check (list (pair string int))) "gauges" t.Ck.gauges
        t'.Ck.gauges);
  (* corrupt one byte: the checkpoint must be rejected, not misread *)
  let path = Filename.concat dir "ckpt" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let len = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd (len / 2) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
  ignore (Unix.lseek fd (len / 2) Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  (match Ck.read ~dir with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupted checkpoint read back as valid")

(* --- service restart recovery --- *)

let key_range = 128

let service_cfg ~data_dir =
  {
    Sv.default_config with
    Sv.scheme = Oa_smr.Schemes.Optimistic_access;
    shards = 2;
    workers_per_shard = 1;
    prefill = 0;
    key_range;
    delta = 2_000;
    queue_capacity = 256;
    dequeue_batch = 16;
    data_dir = Some data_dir;
    segment_bytes = 2_048;
    ckpt_every = 0;
  }

let call_mut service kind key =
  match Sv.call service kind key with
  | Sv.Done b -> b
  | Sv.Rejected -> Alcotest.fail "unexpected BUSY in test"
  | Sv.Failed -> Alcotest.fail "exec failure in test"

let sweep_service service =
  Array.init key_range (fun i -> call_mut service Sv.Get (i + 1))

let test_service_restart () =
  with_dir @@ fun dir ->
  let model = Array.make key_range false in
  let rng = Oa_util.Splitmix.create 99 in
  (* first life: random acked mutations *)
  let service = Sv.create (service_cfg ~data_dir:dir) in
  Sv.start service;
  for _ = 1 to 600 do
    let k = 1 + Oa_util.Splitmix.below rng key_range in
    if Oa_util.Splitmix.below rng 3 = 0 then begin
      ignore (call_mut service Sv.Delete k);
      model.(k - 1) <- false
    end
    else begin
      ignore (call_mut service Sv.Insert k);
      model.(k - 1) <- true
    end
  done;
  let before = sweep_service service in
  Alcotest.(check (array bool)) "live state equals the model" model before;
  Sv.stop service;
  let r = Sv.drain_report service in
  if not r.Sv.conservation_ok then Alcotest.fail "conservation (first life)";
  (* second life: same data dir, nothing else carried over *)
  let service2 = Sv.create (service_cfg ~data_dir:dir) in
  let recovered =
    Sv.recovered_records service2 + Sv.recovered_ckpt_keys service2
  in
  if recovered = 0 then
    Alcotest.fail "restart recovered nothing from a non-empty data dir";
  Sv.start service2;
  let after = sweep_service service2 in
  Alcotest.(check (array bool)) "recovered state equals the model" model
    after;
  Sv.stop service2;
  let r2 = Sv.drain_report service2 in
  if not r2.Sv.conservation_ok then Alcotest.fail "conservation (second life)"

(* The prefill is durable state: a two-shard service abandoned right
   after its prefill — no traffic, no drain, so no checkpoint — and
   restarted on its data dir replays exactly the prefilled keys, each
   from its own shard's log. *)
let test_prefill_restart () =
  with_dir @@ fun dir ->
  let cfg = { (service_cfg ~data_dir:dir) with Sv.prefill = key_range / 2 } in
  let before = Sv.contents (Sv.create cfg) in
  Alcotest.(check int) "prefilled" (key_range / 2) (Array.length before);
  let service = Sv.create cfg in
  Alcotest.(check (pair int int)) "every prefilled key replayed"
    (key_range / 2, 0)
    (Sv.recovered_records service, Sv.recovered_ckpt_keys service);
  Alcotest.(check (array int)) "recovered state equals the prefill" before
    (Sv.contents service)

(* --- replay of a delete-heavy log --- *)

(* A log of effective mutations, written straight through the shard
   store and recovered by a fresh service at the default delta (8000).
   Half the records are deletes and nothing but the replay touches the
   table, so the replay itself must retire what it deletes: left to later
   traversals, the marked nodes spread over 32k buckets outgrow the
   arena's slack and recovery dies with Arena_exhausted. *)
let test_replay_delete_heavy () =
  with_dir @@ fun dir ->
  let prefill = 20_000 and range = 40_000 and mutations = 60_000 in
  let store, _ =
    Oa_store.Shard_store.open_shard ~data_dir:dir ~index:0
      ~segment_bytes:(1 lsl 20) ~ckpt_every:0 ~on_snapshot:ignore
      ~on_record:ignore
  in
  let model = Array.make range false in
  let toggle k =
    let op = if model.(k) then R.Delete else R.Insert in
    ignore (Oa_store.Shard_store.append store ~n:1 [| op |] [| k + 1 |]);
    model.(k) <- not model.(k)
  in
  let rng = Oa_util.Splitmix.create 5 in
  let live = ref 0 in
  while !live < prefill do
    let k = Oa_util.Splitmix.below rng range in
    if not model.(k) then begin
      toggle k;
      incr live
    end
  done;
  for _ = 1 to mutations do
    toggle (Oa_util.Splitmix.below rng range)
  done;
  ignore
    (Oa_store.Shard_store.sync store
       ~upto:(Oa_store.Shard_store.last_seq store));
  Oa_store.Shard_store.close store;
  let service =
    Sv.create
      {
        Sv.default_config with
        Sv.shards = 1;
        prefill;
        key_range = range;
        data_dir = Some dir;
        ckpt_every = 0;
      }
  in
  Alcotest.(check int) "every record replayed" (prefill + mutations)
    (Sv.recovered_records service);
  Sv.start service;
  let got = Array.init range (fun k -> call_mut service Sv.Get (k + 1)) in
  Alcotest.(check (array bool)) "recovered state equals the model" model got;
  Sv.stop service;
  let r = Sv.drain_report service in
  if not r.Sv.conservation_ok then Alcotest.fail "conservation";
  (* recovery quiesces its registration after the replay, and the worker
     quiesces its own at stop: no retired node is left unreclaimed *)
  Alcotest.(check int) "retired nodes all reclaimed" r.Sv.retired r.Sv.reclaimed

(* --- replica convergence over loopback --- *)

let test_replica_convergence () =
  with_dir @@ fun dir ->
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let primary = Sv.create (service_cfg ~data_dir:dir) in
  Sv.start primary;
  let server = Srv.create ~port:0 ~service:primary () in
  let port = Srv.port server in
  let serving = Domain.spawn (fun () -> Srv.serve server) in
  (* drive the primary through the wire like any client *)
  let client = C.connect ~port () in
  let model = Array.make key_range false in
  let rng = Oa_util.Splitmix.create 7 in
  for batch = 0 to 29 do
    let reqs =
      List.init 16 (fun i ->
          let k = 1 + Oa_util.Splitmix.below rng key_range in
          let op =
            if Oa_util.Splitmix.below rng 3 = 0 then (
              model.(k - 1) <- false;
              P.Delete k)
            else (
              model.(k - 1) <- true;
              P.Insert k)
          in
          { P.id = (batch * 16) + i; op })
    in
    match C.call client reqs with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "primary write failed: %s" e
  done;
  C.close client;
  (* follower: volatile service pulling the primary's log *)
  let replica = Sv.create { (service_cfg ~data_dir:dir) with Sv.data_dir = None } in
  Sv.start replica;
  let repl =
    Oa_net.Repl.start ~service:replica
      { Oa_net.Repl.default_config with host = "127.0.0.1"; port }
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    if Oa_net.Repl.caught_up repl then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "replica did not catch up within 10s"
    else begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ();
  Oa_net.Repl.stop repl;
  let got = sweep_service replica in
  Alcotest.(check (array bool)) "replica contents equal the primary model"
    model got;
  if Oa_net.Repl.applied_records repl = 0 then
    Alcotest.fail "replica applied no records";
  Srv.shutdown server;
  Domain.join serving;
  Sv.stop replica;
  Sv.stop primary;
  let rp = Sv.drain_report primary and rr = Sv.drain_report replica in
  if not rp.Sv.conservation_ok then Alcotest.fail "primary conservation";
  if not rr.Sv.conservation_ok then Alcotest.fail "replica conservation"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ( "record",
        [
          qt qcheck_roundtrip;
          qt qcheck_torn_prefix;
          qt qcheck_crc_flip;
          Alcotest.test_case "multi-record decode walk" `Quick
            test_multi_decode;
        ] );
      ( "wal",
        [
          Alcotest.test_case "append/scan round-trip with rotation" `Quick
            test_wal_roundtrip;
          Alcotest.test_case "torn tail is truncated, not misread" `Quick
            test_wal_torn_tail;
          Alcotest.test_case "sync_dir on a missing directory raises" `Quick
            test_sync_dir_missing;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip and corruption rejection" `Quick
            test_checkpoint_roundtrip;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "service restart recovers acked state" `Quick
            test_service_restart;
          Alcotest.test_case "prefill survives a restart without traffic"
            `Quick test_prefill_restart;
          Alcotest.test_case "delete-heavy replay fits the default delta"
            `Quick test_replay_delete_heavy;
        ] );
      ( "replication",
        [
          Alcotest.test_case "replica converges over loopback" `Quick
            test_replica_convergence;
        ] );
    ]
