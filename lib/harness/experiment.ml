(** One benchmark experiment: a (structure, scheme, backend, thread count,
    operation mix) point, as used by every figure of the paper.

    Methodology mirrors Section 5: the structure is prefilled to its target
    size from a key range twice that size (so inserts and deletes succeed
    with similar probability at steady state), then [total_ops] operations
    are executed split across the threads, drawing operations from the mix
    and keys uniformly from the range.  Throughput is total operations over
    elapsed time — the simulated makespan on the sim backend, wall-clock on
    the real one.  The arena is sized [prefill + delta] for reclaiming
    schemes ([delta] is Figure 3's phase-frequency knob) and to the whole
    run's allocations for [NoRecl]. *)

module I = Oa_core.Smr_intf
module CM = Oa_simrt.Cost_model

type structure_kind = Linked_list | Hash_table | Skip_list

let structure_name = function
  | Linked_list -> "list"
  | Hash_table -> "hash"
  | Skip_list -> "skiplist"

type backend_spec =
  | Sim of { cost_model : CM.t; quantum : int }
  | Real  (** domains over the flat cache-aligned arena *)

type spec = {
  structure : structure_kind;
  prefill : int;
  scheme : Oa_smr.Schemes.id;
  threads : int;
  mix : Oa_workload.Op_mix.t;
  key_theta : float option;
      (** [None] = uniform keys over twice the prefill (the paper's
          workload); [Some theta] = Zipfian skew, an extension *)
  total_ops : int;
  delta : int;  (** allocatable slack beyond [prefill] *)
  chunk_size : int;
  seed : int;
  backend : backend_spec;
}

let default_spec =
  {
    structure = Hash_table;
    prefill = 1000;
    scheme = Oa_smr.Schemes.Optimistic_access;
    threads = 4;
    mix = Oa_workload.Op_mix.read_mostly;
    key_theta = None;
    total_ops = 100_000;
    delta = 16_000;
    chunk_size = 126;
    seed = 1;
    backend = Sim { cost_model = CM.amd_opteron; quantum = 128 };
  }

type result = {
  spec : spec;
  throughput : float;  (** operations per second *)
  elapsed : float;  (** seconds (simulated or wall) *)
  smr_stats : I.stats;
  final_size : int;
  minor_words_per_op : float;
      (** minor-heap words the measured phase allocated, summed over its
          threads (each reads its own domain's [Gc.minor_words] around its
          operation loop), per operation; [nan] on the simulator, whose
          threads share one domain *)
}

(* Structure-agnostic operation bundle built per thread. *)
type ops = {
  op_contains : int -> bool;
  op_insert : int -> bool;
  op_delete : int -> bool;
}

(* Minimum slack so that no thread starves on local pools: the paper's
   floor is two chunks per thread (allocation + retirement local pools,
   delta >= 2 * threads * 126); our OA additionally has up to one chunk per
   thread in flight between the retired and ready pools while a phase is
   being processed, so we budget three (measured: the hash workload at 32
   threads starves between 2x and 3x). *)
let delta_floor ~threads ~chunk_size = ((threads + 1) * 3 * chunk_size) + 256

let effective_delta spec =
  max spec.delta (delta_floor ~threads:spec.threads ~chunk_size:spec.chunk_size)

let smr_config spec ~hp_slots ~max_cas =
  {
    I.chunk_size = spec.chunk_size;
    hp_slots;
    max_cas;
    (* Paper, Figure 3: HP scans after k = delta/threads retires; EBR
       attempts an epoch advance every q = (delta/threads)*10 operations
       (deletions are ~10% of operations). *)
    retire_threshold = max 16 (effective_delta spec / spec.threads);
    epoch_threshold = max 16 (effective_delta spec / spec.threads);
    anchor_interval = 1000;
    ebr_op_work = I.default_config.I.ebr_op_work;
  }

let arena_capacity spec =
  let base = spec.prefill + effective_delta spec + 8 in
  match spec.scheme with
  | Oa_smr.Schemes.No_reclamation ->
      let inserts =
        int_of_float
          (ceil
             (float_of_int spec.total_ops
             *. Oa_workload.Op_mix.insert_fraction spec.mix))
      in
      base + inserts
  | _ -> base

let make_backend ?trace spec : (module Oa_runtime.Runtime_intf.S) =
  match spec.backend with
  | Sim { cost_model; quantum } ->
      Oa_runtime.Sim_backend.make ~seed:spec.seed ~quantum
        ~max_threads:(spec.threads + 1) ?trace cost_model
  | Real -> Oa_runtime.Real_backend.make ~max_threads:(spec.threads + 1) ()

(* The simulator charges shared-memory accesses; fixed per-operation compute
   comes from the cost model's [op_overhead] plus a per-structure term.  The
   paper notes (Section 5) that skip-list operations "execute significantly
   more instructions" than list operations of similar memory footprint; a
   memory-only model under-represents that, so the difference is calibrated
   here (see EXPERIMENTS.md). *)
let structure_op_work = function
  | Linked_list | Hash_table -> 0
  | Skip_list -> 600

(* Prefill with random keys until exactly [prefill] distinct keys are in,
   then run the measured phase. *)
let drive (module R : Oa_runtime.Runtime_intf.S) spec ~(register : int -> ops)
    ~(validate : unit -> (unit, string) Stdlib.result) ~(size : unit -> int) =
  let key_range = 2 * spec.prefill in
  let dist =
    match spec.key_theta with
    | None -> Oa_workload.Key_dist.uniform ~range:key_range
    | Some theta -> Oa_workload.Key_dist.zipf ~range:key_range ~theta
  in
  R.par_run ~n:1 (fun _ ->
      let ops = register (-1) in
      let rng = Oa_util.Splitmix.create (spec.seed lxor 0x5eed) in
      let remaining = ref spec.prefill in
      while !remaining > 0 do
        let k = Oa_workload.Key_dist.draw dist rng in
        if ops.op_insert k then decr remaining
      done);
  let per_thread = max 1 (spec.total_ops / spec.threads) in
  let words = Array.make spec.threads 0.0 in
  R.par_run ~n:spec.threads (fun tid ->
      let ops = register tid in
      let rng = Oa_util.Splitmix.create ((spec.seed * 7919) + tid) in
      let extra_work = structure_op_work spec.structure in
      let w0 = Gc.minor_words () in
      for _ = 1 to per_thread do
        R.op_work ();
        if extra_work > 0 then R.work extra_work;
        let k = Oa_workload.Key_dist.draw dist rng in
        match Oa_workload.Op_mix.draw spec.mix rng with
        | Oa_workload.Op_mix.Contains -> ignore (ops.op_contains k)
        | Oa_workload.Op_mix.Insert -> ignore (ops.op_insert k)
        | Oa_workload.Op_mix.Delete -> ignore (ops.op_delete k)
      done;
      words.(tid) <- Gc.minor_words () -. w0);
  let elapsed = R.elapsed_seconds () in
  (match validate () with
  | Ok () -> ()
  | Error e ->
      failwith
        (Printf.sprintf "experiment %s/%s: invariant violated: %s"
           (structure_name spec.structure)
           (Oa_smr.Schemes.id_name spec.scheme)
           e));
  let total = per_thread * spec.threads in
  let minor_words_per_op =
    match spec.backend with
    | Real -> Array.fold_left ( +. ) 0.0 words /. float_of_int total
    | Sim _ -> nan
  in
  (elapsed, float_of_int total /. elapsed, size (), minor_words_per_op)

(** [run ?sink ?trace spec] executes one experiment.  [sink] (default
    {!Oa_obs.Sink.disabled}) collects the scheme's event telemetry: the
    caller snapshots it after [run] returns, at quiescence — per logical
    thread on the sim backend, per domain after the join on the real one.
    [trace] (sim backend only) records scheduler context switches into the
    given ring buffer. *)
let run ?(sink = Oa_obs.Sink.disabled) ?trace spec : result =
  let module R = (val make_backend ?trace spec) in
  let module Sch = Oa_smr.Schemes.Make (R) in
  let module S = (val Sch.pack spec.scheme) in
  let capacity = arena_capacity spec in
  match spec.structure with
  | Linked_list ->
      let module L = Oa_structures.Linked_list.Make (S) in
      let cfg = smr_config spec ~hp_slots:3 ~max_cas:1 in
      let t = L.create ~obs:sink ~capacity cfg in
      let register _tid =
        let ctx = L.register t in
        {
          op_contains = L.contains ctx;
          op_insert = L.insert ctx;
          op_delete = L.delete ctx;
        }
      in
      let validate () = L.validate t ~limit:(10 * capacity) in
      let size () = List.length (L.to_list t) in
      let elapsed, throughput, final_size, minor_words_per_op =
        drive (module R) spec ~register ~validate ~size
      in
      {
        spec;
        throughput;
        elapsed;
        smr_stats = S.stats (L.smr t);
        final_size;
        minor_words_per_op;
      }
  | Hash_table ->
      let module H = Oa_structures.Hash_table.Make (S) in
      let cfg = smr_config spec ~hp_slots:3 ~max_cas:1 in
      let t = H.create ~obs:sink ~capacity ~expected_size:spec.prefill cfg in
      let register _tid =
        let ctx = H.register t in
        {
          op_contains = H.contains t ctx;
          op_insert = H.insert t ctx;
          op_delete = H.delete t ctx;
        }
      in
      let validate () = H.validate t ~limit:(10 * capacity) in
      let size () = List.length (H.to_list t) in
      let elapsed, throughput, final_size, minor_words_per_op =
        drive (module R) spec ~register ~validate ~size
      in
      {
        spec;
        throughput;
        elapsed;
        smr_stats = S.stats (H.smr t);
        final_size;
        minor_words_per_op;
      }
  | Skip_list ->
      let module Sl = Oa_structures.Skip_list.Make (S) in
      let cfg =
        smr_config spec ~hp_slots:Sl.hp_slots_needed ~max_cas:Sl.max_cas_needed
      in
      let t = Sl.create ~obs:sink ~capacity cfg in
      let next_seed = ref spec.seed in
      let register _tid =
        incr next_seed;
        let ctx = Sl.register ~seed:!next_seed t in
        {
          op_contains = Sl.contains ctx;
          op_insert = Sl.insert ctx;
          op_delete = Sl.delete ctx;
        }
      in
      let validate () = Sl.validate t ~limit:(10 * capacity) in
      let size () = List.length (Sl.to_list t) in
      let elapsed, throughput, final_size, minor_words_per_op =
        drive (module R) spec ~register ~validate ~size
      in
      {
        spec;
        throughput;
        elapsed;
        smr_stats = S.stats (Sl.smr t);
        final_size;
        minor_words_per_op;
      }

(** Run [repeats] times with distinct seeds; returns per-run throughputs.
    A [sink] accumulates telemetry across all repetitions. *)
let run_repeated ?(repeats = 3) ?sink ?trace spec =
  List.init repeats (fun i ->
      run ?sink ?trace { spec with seed = spec.seed + (31 * i) })
