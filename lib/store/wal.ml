(** Per-shard write-ahead log: append-only segment files of CRC-framed
    {!Record}s, with group-commit [fsync] and segment rotation.

    One [Wal.t] belongs to one shard directory.  Appends assign strictly
    increasing sequence numbers and write whole batches with a single
    [write(2)]; durability is a separate step ({!sync}) so that a worker
    can ride one [fsync] for a whole batch rendezvous — and so that
    concurrent workers can {e share} one: [sync ~upto] returns without
    touching the disk when another worker's fsync already covered [upto]
    (classic group commit).

    Rotation seals the current segment once it exceeds [segment_bytes]:
    the old segment is fsynced and closed, a fresh one is created (and the
    directory entry fsynced so the file name itself survives a crash).
    Sealed segments are immutable; {!drop_sealed} deletes them once a
    checkpoint covers their records.

    A bounded in-memory tail ring keeps the most recent appends for the
    replication path ({!fetch}): followers that are close behind are
    served from memory; farther behind, from the segment files; behind
    the last checkpoint, they must resync from the checkpoint
    (docs/persistence.md). *)

type t = {
  dir : string;
  segment_bytes : int;
  m : Mutex.t;
  mutable seg_index : int;
  mutable fd : Unix.file_descr;
  mutable seg_len : int;
  mutable appended_seq : int;
  mutable synced_seq : int;
  buf : Buffer.t;
  tail : Record.t option array;  (** ring: seq [s] at [s mod cap] *)
  ring_base : int;  (** seqs [<= ring_base] predate this process *)
}

let segment_name index = Printf.sprintf "wal-%08d.seg" index

let segment_index_of_name name =
  try Scanf.sscanf name "wal-%08d.seg%!" (fun i -> Some i)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let list_segments dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map segment_index_of_name
      |> List.sort compare

(* fsync the directory so renames/creates/unlinks of segment files are
   themselves durable.  Only EINVAL — a filesystem that cannot fsync a
   directory — is tolerated; any other failure raises, as a failed
   segment fsync does, rather than let the shard ack writes whose file
   names may not survive a crash. *)
let sync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let open_segment dir index =
  Unix.openfile
    (Filename.concat dir (segment_name index))
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
    0o644

(** [create ~dir ~segment_bytes ~start_seq ()] opens a fresh segment
    after any existing ones (recovery never appends into a possibly-torn
    file) and continues sequence numbers from [start_seq]. *)
let create ?(tail_cap = 65_536) ~dir ~segment_bytes ~start_seq () =
  if segment_bytes < Record.frame_len then
    invalid_arg "Wal.create: segment_bytes below one record frame";
  mkdir_p dir;
  let seg_index =
    match List.rev (list_segments dir) with [] -> 1 | last :: _ -> last + 1
  in
  let fd = open_segment dir seg_index in
  sync_dir dir;
  {
    dir;
    segment_bytes;
    m = Mutex.create ();
    seg_index;
    fd;
    seg_len = 0;
    appended_seq = start_seq;
    synced_seq = start_seq;
    buf = Buffer.create 4_096;
    tail = Array.make (max 16 tail_cap) None;
    ring_base = start_seq;
  }

let last_seq t =
  Mutex.lock t.m;
  let s = t.appended_seq in
  Mutex.unlock t.m;
  s

let write_all fd data =
  let len = Bytes.length data in
  let written = ref 0 in
  while !written < len do
    match Unix.write fd data !written (len - !written) with
    | n -> written := !written + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* Seal the current segment: make it durable, open the next, close it.
   The next segment is opened before the old one is closed, so a failed
   open leaves [t.fd] a live descriptor rather than a closed number the
   process may reuse.  Caller holds [t.m]. *)
let rotate_locked t =
  Unix.fsync t.fd;
  t.synced_seq <- t.appended_seq;
  let old = t.fd in
  t.fd <- open_segment t.dir (t.seg_index + 1);
  t.seg_index <- t.seg_index + 1;
  t.seg_len <- 0;
  Unix.close old;
  sync_dir t.dir

(** [append t ~n ops keys] appends records for the first [n] entries of
    the parallel arrays, assigning consecutive sequence numbers; one
    [write(2)] for the whole batch.  Returns [(last_seq, rotated)] —
    [rotated] reports that the append sealed a segment (which implies an
    fsync of the records up to that point).  Does {e not} fsync the new
    records: call {!sync}.  Like every locking entry point here, it
    releases [t.m] when an I/O error escapes. *)
let append t ~n ops keys =
  if n <= 0 then invalid_arg "Wal.append: empty batch";
  Mutex.protect t.m @@ fun () ->
  Buffer.clear t.buf;
  let cap = Array.length t.tail in
  for i = 0 to n - 1 do
    let seq = t.appended_seq + 1 + i in
    let r = { Record.seq; op = ops.(i); key = keys.(i) } in
    Record.encode t.buf r;
    t.tail.(seq mod cap) <- Some r
  done;
  let data = Buffer.to_bytes t.buf in
  write_all t.fd data;
  t.appended_seq <- t.appended_seq + n;
  t.seg_len <- t.seg_len + Bytes.length data;
  let rotated =
    if t.seg_len >= t.segment_bytes then begin
      rotate_locked t;
      true
    end
    else false
  in
  (t.appended_seq, rotated)

(** Group commit: make every record up to [upto] durable.  Returns
    [false] — no disk touched — when a concurrent sync (or a rotation)
    already covered [upto]; [true] when this call issued the fsync, which
    then covers {e everything appended so far}, letting waiters skip. *)
let sync t ~upto =
  Mutex.protect t.m @@ fun () ->
  if t.synced_seq >= upto then false
  else begin
    Unix.fsync t.fd;
    t.synced_seq <- t.appended_seq;
    true
  end

(** Seal the current segment unconditionally (checkpoint prologue): after
    [seal], every appended record lives in a sealed, durable segment. *)
let seal t =
  Mutex.protect t.m @@ fun () ->
  if t.seg_len > 0 || t.seg_index = 0 then rotate_locked t;
  t.appended_seq

(** Delete every sealed segment (all but the currently-open one); call
    only once a checkpoint covers their records. *)
let drop_sealed t =
  Mutex.protect t.m @@ fun () ->
  let current = t.seg_index in
  List.iter
    (fun i ->
      if i < current then
        try Sys.remove (Filename.concat t.dir (segment_name i))
        with Sys_error _ -> ())
    (list_segments t.dir);
  sync_dir t.dir

let close t =
  Mutex.lock t.m;
  (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  Mutex.unlock t.m

(* --- replication fetch (memory tail) --- *)

type fetch = Records of Record.t list * int  (** records, appended seq *)
           | Too_old

(** [fetch t ~from ~max] returns up to [max] records with [seq > from]
    from the in-memory tail, oldest first, plus the current appended
    sequence (the follower's lag gauge).  [Too_old] means the ring no
    longer holds [from + 1] — fall back to the segment files or the
    checkpoint ({!Shard_store.fetch}). *)
let fetch t ~from ~max =
  Mutex.lock t.m;
  let last = t.appended_seq in
  let cap = Array.length t.tail in
  let r =
    if from >= last then Records ([], last)
    else if from < last - cap || from < t.ring_base then Too_old
    else begin
      let hi = min last (from + max) in
      let acc = ref [] in
      for seq = hi downto from + 1 do
        match t.tail.(seq mod cap) with
        | Some r when r.Record.seq = seq -> acc := r :: !acc
        | _ -> assert false
      done;
      Records (!acc, last)
    end
  in
  Mutex.unlock t.m;
  r

(* --- reading segment files (recovery, file-fallback fetch) --- *)

type scan = {
  records : int;
  scan_last_seq : int;  (** 0 when the log is empty *)
  tears : (int * int) list;
      (** (segment index, byte offset) of every point where decoding
          stopped early — the torn tail of a crash mid-append, or (in a
          non-final segment) corruption; the segment's remainder is
          skipped either way *)
}

(** [scan_dir ~dir f] decodes every record in every segment, in segment
    then file order, calling [f] on each.  A torn or corrupt frame stops
    the current segment (recorded in [tears]) and scanning continues with
    the next segment — valid records appended after a recovered tear live
    in later segments by construction ({!create} never reopens an old
    segment). *)
let scan_dir ~dir f =
  let read_file path =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error _ -> Bytes.create 0
    | fd ->
        let len = (Unix.fstat fd).Unix.st_size in
        let b = Bytes.create len in
        let pos = ref 0 in
        (try
           while !pos < len do
             match Unix.read fd b !pos (len - !pos) with
             | 0 -> pos := len
             | n -> pos := !pos + n
           done
         with Unix.Unix_error _ -> ());
        Unix.close fd;
        b
  in
  List.fold_left
    (fun acc index ->
      let b = read_file (Filename.concat dir (segment_name index)) in
      let len = Bytes.length b in
      let rec go acc off =
        if off >= len then acc
        else
          match Record.decode b ~off ~avail:(len - off) with
          | Record.Complete (r, consumed) ->
              f r;
              go
                {
                  acc with
                  records = acc.records + 1;
                  scan_last_seq = max acc.scan_last_seq r.Record.seq;
                }
                (off + consumed)
          | Record.Incomplete | Record.Bad _ ->
              { acc with tears = (index, off) :: acc.tears }
      in
      go acc 0)
    { records = 0; scan_last_seq = 0; tears = [] }
    (list_segments dir)

(** File-fallback fetch: records with [seq > from], up to [max], read
    from the segment files. *)
let scan_from ~dir ~from ~max =
  let acc = ref [] in
  let n = ref 0 in
  let scan =
    scan_dir ~dir (fun r ->
        if r.Record.seq > from && !n < max then begin
          acc := r :: !acc;
          incr n
        end)
  in
  (List.rev !acc, scan.scan_last_seq)
