(** Wire protocol of the [Oa_net] key-value service.

    Length-prefixed binary frames over TCP, designed for pipelining: every
    request carries a caller-chosen 63-bit id that its response echoes, so
    a client may keep any number of requests in flight and match answers
    by id (the server additionally preserves order within a connection).

    Frame layout (all integers big-endian):

    {v
    frame    := length:u32 payload          length = |payload|, <= max_payload
    request  := opcode:u8 id:u64 [key:u64]
    response := status:u8 id:u64 [extra]
    v}

    Request opcodes: [1] GET(key), [2] INSERT(key), [3] DELETE(key),
    [4] STATS, [5] PING, and the replication pair (docs/persistence.md):
    [6] FETCH(shard, from) — WAL records of [shard] after sequence
    [from] ([shard:u64 from:u64]) — and [7] SNAP(shard, offset) — a
    chunk of [shard]'s checkpoint key set ([shard:u64 offset:u64]).

    Response statuses: [1] TRUE, [2] FALSE (the two boolean results of
    set operations), [3] BUSY (the server is at its connection cap or
    stopping — the request was {e not} executed), [4] ERROR
    ([len:u16 msg:bytes]), [5] PONG, [6] STATS ([n:u16 v_1..v_n:u64]), [7] RECORDS
    ([last:u64 n:u16] then [n] 17-byte records [op:u8 seq:u64 key:u64],
    [last] being the shard's current appended sequence), [8] SNAP_NEEDED
    ([ckpt_seq:u64 total:u64] — the follower's position predates the
    primary's checkpoint; resync via SNAP), [9] SNAP_CHUNK
    ([ckpt_seq:u64 total:u64 offset:u64 n:u16 key_1..key_n:u64]).

    Decoding is incremental and total: [decode_*] never raises on
    malformed input — truncated frames report {!Incomplete} (more bytes
    needed), while oversized lengths, unknown opcodes and length/opcode
    mismatches report {!Fail}, which a connection loop turns into an ERROR
    response and a close, never an escaped exception. *)

type op =
  | Get of int
  | Insert of int
  | Delete of int
  | Stats
  | Ping
  | Fetch of { shard : int; from : int }
  | Snap of { shard : int; offset : int }

type request = { id : int; op : op }

type body =
  | Bool of bool
  | Busy
  | Pong
  | Stats_r of int array
  | Error_r of string
  | Records_r of { last : int; records : Oa_store.Record.t array }
  | Snap_needed_r of { ckpt_seq : int; total : int }
  | Snap_chunk_r of { ckpt_seq : int; total : int; offset : int; keys : int array }

type response = { rid : int; body : body }

type error =
  | Oversized of int  (** declared payload length above {!max_payload} *)
  | Undersized of int  (** declared payload length below the 9-byte minimum *)
  | Unknown_opcode of int
  | Bad_length of { opcode : int; length : int }
      (** valid opcode but a payload length that does not match it *)
  | Trailing_garbage of { expected : int; length : int }
      (** variable-size payload whose inner sizes disagree with the frame *)
  | Eof_mid_frame of int
      (** connection closed with this many unconsumed bytes buffered *)

let error_to_string = function
  | Oversized n -> Printf.sprintf "oversized frame: %d-byte payload" n
  | Undersized n -> Printf.sprintf "undersized frame: %d-byte payload" n
  | Unknown_opcode c -> Printf.sprintf "unknown opcode 0x%02x" c
  | Bad_length { opcode; length } ->
      Printf.sprintf "opcode 0x%02x with %d-byte payload" opcode length
  | Trailing_garbage { expected; length } ->
      Printf.sprintf "inner sizes need %d bytes, frame has %d" expected length
  | Eof_mid_frame n -> Printf.sprintf "connection closed mid-frame (%d bytes)" n

type 'a decoded = Complete of 'a * int | Incomplete | Fail of error

(** Payload-size ceiling: large enough for any STATS or ERROR response,
    small enough that a hostile length prefix cannot balloon buffers. *)
let max_payload = 65_536

let max_error_msg = 4_096
let max_stats = 1_024

(** Replication batch ceilings, chosen so the largest RECORDS
    (19 + 17n bytes) and SNAP_CHUNK (35 + 8n bytes) payloads stay under
    {!max_payload}. *)
let max_fetch_records = 2_048

let max_snap_keys = 4_096

(* --- encoding --- *)

let add_u8 buf v = Buffer.add_uint8 buf (v land 0xff)
let add_u16 buf v = Buffer.add_uint16_be buf (v land 0xffff)
let add_u32 buf v = Buffer.add_int32_be buf (Int32.of_int v)
let add_u64 buf v = Buffer.add_int64_be buf (Int64.of_int v)

let op_opcode = function
  | Get _ -> 1
  | Insert _ -> 2
  | Delete _ -> 3
  | Stats -> 4
  | Ping -> 5
  | Fetch _ -> 6
  | Snap _ -> 7

let encode_request buf { id; op } =
  let len =
    match op with
    | Get _ | Insert _ | Delete _ -> 17
    | Fetch _ | Snap _ -> 25
    | Stats | Ping -> 9
  in
  add_u32 buf len;
  add_u8 buf (op_opcode op);
  add_u64 buf id;
  match op with
  | Get k | Insert k | Delete k -> add_u64 buf k
  | Fetch { shard; from } ->
      add_u64 buf shard;
      add_u64 buf from
  | Snap { shard; offset } ->
      add_u64 buf shard;
      add_u64 buf offset
  | Stats | Ping -> ()

let encode_response buf { rid; body } =
  match body with
  | Bool b ->
      add_u32 buf 9;
      add_u8 buf (if b then 1 else 2);
      add_u64 buf rid
  | Busy ->
      add_u32 buf 9;
      add_u8 buf 3;
      add_u64 buf rid
  | Error_r msg ->
      let msg =
        if String.length msg > max_error_msg then String.sub msg 0 max_error_msg
        else msg
      in
      add_u32 buf (11 + String.length msg);
      add_u8 buf 4;
      add_u64 buf rid;
      add_u16 buf (String.length msg);
      Buffer.add_string buf msg
  | Pong ->
      add_u32 buf 9;
      add_u8 buf 5;
      add_u64 buf rid
  | Stats_r vs ->
      let n = min (Array.length vs) max_stats in
      add_u32 buf (11 + (8 * n));
      add_u8 buf 6;
      add_u64 buf rid;
      add_u16 buf n;
      for i = 0 to n - 1 do
        add_u64 buf vs.(i)
      done
  | Records_r { last; records } ->
      let n = min (Array.length records) max_fetch_records in
      add_u32 buf (19 + (17 * n));
      add_u8 buf 7;
      add_u64 buf rid;
      add_u64 buf last;
      add_u16 buf n;
      for i = 0 to n - 1 do
        let r = records.(i) in
        add_u8 buf (Oa_store.Record.op_code r.Oa_store.Record.op);
        add_u64 buf r.Oa_store.Record.seq;
        add_u64 buf r.Oa_store.Record.key
      done
  | Snap_needed_r { ckpt_seq; total } ->
      add_u32 buf 25;
      add_u8 buf 8;
      add_u64 buf rid;
      add_u64 buf ckpt_seq;
      add_u64 buf total
  | Snap_chunk_r { ckpt_seq; total; offset; keys } ->
      let n = min (Array.length keys) max_snap_keys in
      add_u32 buf (35 + (8 * n));
      add_u8 buf 9;
      add_u64 buf rid;
      add_u64 buf ckpt_seq;
      add_u64 buf total;
      add_u64 buf offset;
      add_u16 buf n;
      for i = 0 to n - 1 do
        add_u64 buf keys.(i)
      done

(* --- decoding --- *)

let get_u8 b off = Bytes.get_uint8 b off
let get_u16 b off = Bytes.get_uint16_be b off
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff
let get_u64 b off = Int64.to_int (Bytes.get_int64_be b off)

(* Shared header handling: [k] receives the opcode/status byte, the id and
   the payload length, with the whole frame guaranteed buffered. *)
let decode_frame b ~off ~avail k =
  if avail < 4 then Incomplete
  else
    let len = get_u32 b off in
    if len > max_payload then Fail (Oversized len)
    else if len < 9 then Fail (Undersized len)
    else if avail < 4 + len then Incomplete
    else
      let opcode = get_u8 b (off + 4) in
      let id = get_u64 b (off + 5) in
      k ~opcode ~id ~len ~body_off:(off + 13)

let decode_request b ~off ~avail =
  decode_frame b ~off ~avail (fun ~opcode ~id ~len ~body_off ->
      (* [op] is a thunk: the length check must run before any payload
         byte is read, or a short frame turns into an out-of-bounds read *)
      let fixed expected op =
        if len <> expected then Fail (Bad_length { opcode; length = len })
        else Complete ({ id; op = op () }, 4 + len)
      in
      match opcode with
      | 1 -> fixed 17 (fun () -> Get (get_u64 b body_off))
      | 2 -> fixed 17 (fun () -> Insert (get_u64 b body_off))
      | 3 -> fixed 17 (fun () -> Delete (get_u64 b body_off))
      | 4 -> fixed 9 (fun () -> Stats)
      | 5 -> fixed 9 (fun () -> Ping)
      | 6 ->
          fixed 25 (fun () ->
              Fetch { shard = get_u64 b body_off; from = get_u64 b (body_off + 8) })
      | 7 ->
          fixed 25 (fun () ->
              Snap { shard = get_u64 b body_off; offset = get_u64 b (body_off + 8) })
      | c -> Fail (Unknown_opcode c))

let decode_response b ~off ~avail =
  decode_frame b ~off ~avail (fun ~opcode ~id ~len ~body_off ->
      let fixed expected body =
        if len <> expected then Fail (Bad_length { opcode; length = len })
        else Complete ({ rid = id; body }, 4 + len)
      in
      match opcode with
      | 1 -> fixed 9 (Bool true)
      | 2 -> fixed 9 (Bool false)
      | 3 -> fixed 9 Busy
      | 4 ->
          if len < 11 then Fail (Bad_length { opcode; length = len })
          else
            let n = get_u16 b body_off in
            if len <> 11 + n then
              Fail (Trailing_garbage { expected = 11 + n; length = len })
            else
              Complete
                ( { rid = id; body = Error_r (Bytes.sub_string b (body_off + 2) n) },
                  4 + len )
      | 5 -> fixed 9 Pong
      | 6 ->
          if len < 11 then Fail (Bad_length { opcode; length = len })
          else
            let n = get_u16 b body_off in
            if len <> 11 + (8 * n) then
              Fail (Trailing_garbage { expected = 11 + (8 * n); length = len })
            else
              let vs = Array.init n (fun i -> get_u64 b (body_off + 2 + (8 * i))) in
              Complete ({ rid = id; body = Stats_r vs }, 4 + len)
      | 7 ->
          if len < 19 then Fail (Bad_length { opcode; length = len })
          else
            let n = get_u16 b (body_off + 8) in
            if len <> 19 + (17 * n) then
              Fail (Trailing_garbage { expected = 19 + (17 * n); length = len })
            else
              let last = get_u64 b body_off in
              let records =
                Array.init n (fun i ->
                    let o = body_off + 10 + (17 * i) in
                    let op =
                      if get_u8 b o = 1 then Oa_store.Record.Insert
                      else Oa_store.Record.Delete
                    in
                    {
                      Oa_store.Record.op;
                      seq = get_u64 b (o + 1);
                      key = get_u64 b (o + 9);
                    })
              in
              (* an out-of-range record op byte is framing corruption *)
              let ok = ref true in
              for i = 0 to n - 1 do
                let c = get_u8 b (body_off + 10 + (17 * i)) in
                if c <> 1 && c <> 2 then ok := false
              done;
              if not !ok then Fail (Bad_length { opcode; length = len })
              else Complete ({ rid = id; body = Records_r { last; records } }, 4 + len)
      | 8 ->
          (* not [fixed]: the payload reads must not run before the
             length check *)
          if len <> 25 then Fail (Bad_length { opcode; length = len })
          else
            Complete
              ( {
                  rid = id;
                  body =
                    Snap_needed_r
                      {
                        ckpt_seq = get_u64 b body_off;
                        total = get_u64 b (body_off + 8);
                      };
                },
                4 + len )
      | 9 ->
          if len < 35 then Fail (Bad_length { opcode; length = len })
          else
            let n = get_u16 b (body_off + 24) in
            if len <> 35 + (8 * n) then
              Fail (Trailing_garbage { expected = 35 + (8 * n); length = len })
            else
              let keys =
                Array.init n (fun i -> get_u64 b (body_off + 26 + (8 * i)))
              in
              Complete
                ( {
                    rid = id;
                    body =
                      Snap_chunk_r
                        {
                          ckpt_seq = get_u64 b body_off;
                          total = get_u64 b (body_off + 8);
                          offset = get_u64 b (body_off + 16);
                          keys;
                        };
                  },
                  4 + len )
      | c -> Fail (Unknown_opcode c))

(* --- pretty-printing (tests, error messages) --- *)

let op_to_string = function
  | Get k -> Printf.sprintf "GET %d" k
  | Insert k -> Printf.sprintf "INSERT %d" k
  | Delete k -> Printf.sprintf "DELETE %d" k
  | Stats -> "STATS"
  | Ping -> "PING"
  | Fetch { shard; from } -> Printf.sprintf "FETCH shard=%d from=%d" shard from
  | Snap { shard; offset } -> Printf.sprintf "SNAP shard=%d offset=%d" shard offset

let body_to_string = function
  | Bool b -> Printf.sprintf "BOOL %b" b
  | Busy -> "BUSY"
  | Pong -> "PONG"
  | Error_r m -> Printf.sprintf "ERROR %S" m
  | Stats_r vs ->
      Printf.sprintf "STATS [%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int vs)))
  | Records_r { last; records } ->
      Printf.sprintf "RECORDS last=%d n=%d" last (Array.length records)
  | Snap_needed_r { ckpt_seq; total } ->
      Printf.sprintf "SNAP_NEEDED ckpt=%d total=%d" ckpt_seq total
  | Snap_chunk_r { ckpt_seq; total; offset; keys } ->
      Printf.sprintf "SNAP_CHUNK ckpt=%d total=%d offset=%d n=%d" ckpt_seq
        total offset (Array.length keys)
