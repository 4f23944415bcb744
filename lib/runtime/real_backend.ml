(** Real backend over OCaml 5 [Domain]s.

    Gives the library a genuinely concurrent implementation: logical
    threads are domains, and cells are words of a flat, contiguous,
    64-byte-aligned {!Flat_mem} arena — the paper's pre-allocated heap
    (Assumption 3.1).  [node_cells] is node-major with the stride padded
    to a cache-line multiple, so all fields of a node share a line and
    neighbouring nodes (and each thread's hazard/warning block) never
    false-share; standalone cells get two full lines each.  Reads are
    plain inlined loads — the paper's barrier-free optimistic read — and
    all mutating operations are seq_cst C atomics.  [fence] is a genuine
    [atomic_thread_fence(seq_cst)] (no shared fence cell, so concurrent
    fences do not contend) and [cpu_relax] the hardware spin-wait hint.

    Wall-clock timings are only meaningful on a machine with enough cores;
    correctness under true preemption holds on any machine. *)

let tid_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let make ?(max_threads = 128) ?(arena_words = 1 lsl 27) () :
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

    (* All carves are whole cache lines, so every carve is line-aligned
       within the 64-byte-aligned arena. *)
    let carve words =
      let off = Atomic.fetch_and_add bump words in
      if off + words > Flat_mem.length arena then
        failwith
          "Real_backend: flat arena reservation exhausted (raise \
           ?arena_words)";
      off

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
       [stride] padded to a whole number of cache lines — all fields of a
       node share a line, neighbouring nodes never do.  The mapping hands
       out zero pages, satisfying the all-cells-start-at-0 contract.

       Single-node carves are per-thread blocks (hazard-slot rows,
       one-off headers) written on every barrier by their owner; round
       them up to an even number of lines so two threads' blocks never
       land in one 128-byte prefetch pair.  Data-node carves keep the
       dense 1-line stride — their sharing is data-dependent, and density
       wins there (same trade the paper's pre-allocated heap makes). *)
    let node_cells ~nodes ~fields =
      if nodes <= 0 || fields <= 0 then
        invalid_arg "Real_backend.node_cells";
      let lw = Flat_mem.line_words in
      let stride = (fields + lw - 1) / lw * lw in
      let stride =
        if nodes = 1 then (stride + (2 * lw) - 1) / (2 * lw) * (2 * lw)
        else stride
      in
      let base = carve (nodes * stride) in
      Array.init fields (fun f ->
          Array.init nodes (fun j -> base + (j * stride) + f))

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
    let faa c d = Flat_mem.faa arena c d

    (* Node zeroing sits on the allocation hot path (Algorithm 5's
       [memset(obj, 0)]).  Nodes are 2-5 words: a handful of inlined
       stores beats the [fill] C call, and plain word stores give the
       same no-torn-read guarantee the stub's volatile stores do.  The
       C call only pays for itself on long spans (decommit paths). *)
    let zero_cells (a : cell array) =
      let n = Array.length a in
      if n > 0 then begin
        let c0 = a.(0) in
        let contiguous = ref true in
        for i = 1 to n - 1 do
          if a.(i) <> c0 + i then contiguous := false
        done;
        if not !contiguous then Array.iter (fun c -> write c 0) a
        else if n <= Flat_mem.line_words then
          for i = 0 to n - 1 do
            Flat_mem.set arena (c0 + i) 0
          done
        else Flat_mem.fill arena c0 n 0
      end

    (* Decommit one [node_cells] carve: zero its whole span — padding
       words between [fields] and the line-rounded stride included — with
       word-granular stores, then hand the page-aligned interior back to
       the OS.  Because a carve starts line-aligned and covers
       [nodes * stride] words, rounding the observed cell span up to a
       line multiple recovers exactly the carve extent, never a word
       more. *)
    let decommit_cells (m : cell array array) =
      if Array.length m > 0 && Array.length m.(0) > 0 then begin
        let lo = ref max_int and hi = ref min_int in
        Array.iter
          (Array.iter (fun c ->
               if c < !lo then lo := c;
               if c > !hi then hi := c))
          m;
        let lw = Flat_mem.line_words in
        let len = (!hi - !lo + 1 + lw - 1) / lw * lw in
        Flat_mem.fill arena !lo len 0;
        Flat_mem.decommit arena !lo len
      end
  end)
