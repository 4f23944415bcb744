(** Real backend over OCaml 5 [Domain]s.

    Gives the library a genuinely concurrent implementation: logical
    threads are domains, and cells are words of a flat, contiguous,
    64-byte-aligned {!Flat_mem} arena — the paper's pre-allocated heap
    (Assumption 3.1).  A node block is four integers — node [j]'s field
    [f] is word [base + j*stride + f], the stride set by {!node_stride} —
    so all fields of a node share a line, each thread's hazard/warning
    row has private lines, and no per-node handle exists on the OCaml
    heap; standalone cells get two full lines each.  Reads are plain
    inlined loads — the paper's barrier-free optimistic read — and all
    mutating operations are seq_cst C atomics.  [fence] is a genuine
    [atomic_thread_fence(seq_cst)] (no shared fence cell, so concurrent
    fences do not contend) and [cpu_relax] the hardware spin-wait hint.

    Wall-clock timings are only meaningful on a machine with enough cores;
    correctness under true preemption holds on any machine. *)

let tid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let default_arena_words = 1 lsl 27

(* Node-block geometry: the one stride rule of the flat layout (the
   elastic allocator's chunk sizing and the arenas' committed-bytes
   gauges call it too).  Single-node blocks are per-thread rows (hazard
   slots, one-off headers) written on every barrier by their owner: they
   start on a 128-byte boundary and are padded to whole line pairs, so
   two threads' rows never land in one adjacent-line prefetch pair.
   Single-field blocks are per-node side words (RC's counters and flags)
   written by every reader: one line each.  Any other data node of at
   most a line takes the least power-of-two stride that holds it, so a
   line holds a whole number of nodes and none straddles two — a 2-field
   list node is 16 bytes, four to a line, as the paper's plain C structs
   are.  Larger nodes are padded to whole lines.  Density wins for data
   nodes: their sharing is data-dependent (the same trade the paper's
   pre-allocated heap makes). *)
let node_align ~nodes =
  if nodes = 1 then 2 * Flat_mem.line_words else Flat_mem.line_words

let rec pow2_at_least p n = if p >= n then p else pow2_at_least (2 * p) n

let node_stride ~nodes ~fields =
  if nodes > 1 && fields >= 2 && fields <= Flat_mem.line_words then
    pow2_at_least 1 fields
  else
    let unit = node_align ~nodes in
    (fields + unit - 1) / unit * unit

let make ?(max_threads = 128) ?(arena_words = default_arena_words) () :
    (module Runtime_intf.S) =
  (module struct
    let name = "real"
    let max_threads = max_threads
    let last_elapsed = ref 0.0
    let last_n = ref 0

    let par_run ~n f =
      if n > max_threads then
        invalid_arg "Real_backend.par_run: too many threads";
      last_n := n;
      let t0 = Clock.now_ns () in
      let domains =
        Array.init n (fun i ->
            Domain.spawn (fun () ->
                Domain.DLS.set tid_key i;
                f i))
      in
      Array.iter Domain.join domains;
      last_elapsed := Clock.elapsed_s ~since:t0

    let elapsed_seconds () = !last_elapsed
    let now_cycles () = Clock.now_ns ()
    let tid () = Domain.DLS.get tid_key
    let n_threads () = !last_n

    let stall c =
      (* Approximate [c] nanoseconds; granularity of sleep is coarse,
         which is fine for failure injection. *)
      if c > 100_000 then Unix.sleepf (float_of_int c *. 1e-9)
      else
        let t0 = Clock.now_ns () in
        while Clock.now_ns () - t0 < c do
          Domain.cpu_relax ()
        done

    let work _ = ()
    let op_work () = ()
    let fence () = Flat_mem.fence ()
    let cpu_relax () = Flat_mem.cpu_relax ()

    (* Reference cells hold OCaml values (chunk lists, registries, pool
       states), so they stay boxed [Atomic.t]s in the GC heap. *)
    type 'a rcell = 'a Atomic.t

    let rcell v = Atomic.make v
    let rread r = Atomic.get r
    let rwrite r v = Atomic.set r v
    let rcas r e v = Atomic.compare_and_set r e v

    (* A cell is a word offset into this backend's single contiguous
       arena — an immediate int, so cells, hazard-slot arrays and the node
       matrix are all GC-scan-free, and a cell access is one indexed load
       with no per-cell heap object.  The reservation is lazily committed
       (pages cost resident memory only when touched), so the generous
       default — 2^27 words, 1 GiB of address space — is near-free. *)
    type cell = int

    let arena = Flat_mem.alloc ~words:arena_words
    let bump = Atomic.make 0

    (* Every carve is rounded up to whole cache lines, so every carve is
       line-aligned within the page-aligned arena; [align] (a line
       multiple) rounds the start up further, reserving the worst-case
       slack in the same fetch-and-add. *)
    let carve ?(align = Flat_mem.line_words) words =
      let lines = (words + Flat_mem.line_words - 1) / Flat_mem.line_words in
      let off =
        Atomic.fetch_and_add bump
          ((lines * Flat_mem.line_words) + align - Flat_mem.line_words)
      in
      let base = (off + align - 1) / align * align in
      if words < 0 || base > Flat_mem.length arena - words then
        failwith
          (Printf.sprintf
             "Real_backend: flat arena reservation of %d words exhausted"
             (Flat_mem.length arena));
      base

    (* Standalone cells are contended singletons (warning words, epoch
       words, pool heads): give each two full lines, not one.  The
       adjacent-line prefetcher pulls 128-byte pairs, so two hot cells on
       neighbouring 64-byte lines still ping-pong between cores; the
       extra line costs nothing (cells are few, pages lazy) and removes
       that coupling.  Measured at 8 domains in docs/performance.md. *)
    let cell v =
      let off = carve (2 * Flat_mem.line_words) in
      Flat_mem.store arena off v;
      off

    (* Node-major layout (the Runtime_intf contract): node [j]'s fields
       are words [base + j*stride .. base + j*stride + fields - 1], with
       [stride] from [node_stride] and [base] line-aligned — all fields
       of a node share a line; up to four 2-field nodes share one too.
       The mapping hands out zero pages, satisfying the
       all-cells-start-at-0 contract. *)
    type block = { base : int; stride : int; fields : int; nodes : int }

    let node_block ~nodes ~fields =
      if nodes <= 0 || fields <= 0 then
        invalid_arg "Real_backend.node_block";
      let stride = node_stride ~nodes ~fields in
      {
        base = carve ~align:(node_align ~nodes) (nodes * stride);
        stride;
        fields;
        nodes;
      }

    let node_cell b j f = b.base + (j * b.stride) + f

    (* Reads and writes are plain inlined word accesses — the paper's
       memory model: no per-access barrier, single-copy atomic at the ISA
       level, ordered only by the explicit fences and seq_cst RMWs the
       SMR schemes already issue (each a C call, hence also a compiler
       barrier).  This keeps the per-read hazard-slot store of HP and the
       warning-word check of OA inlined rather than a C call each. *)
    let read c = Flat_mem.get arena c
    let read_own = read
    let write c v = Flat_mem.set arena c v
    let cas c e v = Flat_mem.cas arena c e v
    let prefetch c = Flat_mem.prefetch arena c
    let faa c d = Flat_mem.faa arena c d

    (* Node zeroing sits on the allocation hot path (Algorithm 5's
       [memset(obj, 0)]).  Nodes are 2-5 words: a handful of inlined
       stores beats the [fill] C call, and plain word stores give the
       same no-torn-read guarantee the stub's volatile stores do. *)
    let zero_node b j =
      let o = b.base + (j * b.stride) in
      for i = o to o + b.fields - 1 do
        Flat_mem.set arena i 0
      done

    (* Decommit a whole block: zero its span — padding words between
       [fields] and the stride included — with word-granular stores, then
       hand the page-aligned interior back to the OS. *)
    let decommit_block b =
      let len = b.nodes * b.stride in
      Flat_mem.fill arena b.base len 0;
      Flat_mem.decommit arena b.base len
  end)
