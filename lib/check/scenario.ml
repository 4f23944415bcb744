(** One checking scenario: a (structure, scheme, op-mix) point executed on
    the simulated backend under a controlled schedule, with its complete
    operation history recorded and checked.

    Scenarios are deliberately tiny — a few threads, a handful of keys, at
    most 62 operations total (the {!Oa_harness.Lincheck} bound) — and run
    with the most hostile SMR configuration the schemes accept
    ([chunk_size = 1], scan/phase thresholds of 1), so reclamation phases
    flip every few operations and stale-read windows are dense.  What
    uniform benchmarking cannot hit in millions of operations, a small
    scenario under an adversarial schedule hits in dozens.

    Every execution is checked three ways:
    - {e linearizability} of the recorded history ({!Oa_harness.Lincheck}),
      timestamped with the engine's global step counter (per-thread cycle
      clocks are not comparable under adversarial policies);
    - {e structural invariants} at quiescence: bounded, strictly-sorted
      traversal, and the final key-set equal to the history's net effect;
    - {e reclamation conservation} via the {!Oa_obs} counters: a scheme
      must never reclaim more nodes than were retired (a double-free
      signature), per scheme stats and per event totals.

    A thread crash ({!Oa_core.Smr_intf.Arena_exhausted}, cycle-limit
    livelock, or any unexpected exception) is reported as a failure too:
    with the generous arena sizing used here, none of them can be produced
    by a correct scheme. *)

module Sched = Oa_simrt.Sched
module CM = Oa_simrt.Cost_model
module E = Oa_harness.Experiment
module L = Oa_harness.Lincheck
module I = Oa_core.Smr_intf
module SM = Oa_util.Splitmix
module Schemes = Oa_smr.Schemes

type scheme =
  | Real of Schemes.id
  | Broken_hp
      (** HP with its read-barrier publication removed (test-only fault in
          {!Oa_smr.Hazard_pointers}); the explorer must catch it *)
  | Broken_vbr
      (** VBR with its version re-validation removed (test-only
          fault in {!Oa_smr.Vbr}); the explorer must catch it *)

let scheme_name = function
  | Real id -> String.lowercase_ascii (Schemes.id_name id)
  | Broken_hp -> "broken-hp"
  | Broken_vbr -> "broken-vbr"

let scheme_of_name s =
  match String.lowercase_ascii s with
  | "broken-hp" | "brokenhp" -> Some Broken_hp
  | "broken-vbr" | "brokenvbr" -> Some Broken_vbr
  | s -> Option.map (fun id -> Real id) (Schemes.id_of_name s)

type t = {
  structure : E.structure_kind;
  scheme : scheme;
  threads : int;
  ops_per_thread : int;
  key_range : int;  (** keys are drawn from [1 .. key_range] *)
  prefill : int;  (** keys [1 .. prefill] inserted before the run *)
  mix : Oa_workload.Op_mix.t;
  theta : float option;
      (** Zipf skew for the op keys; [None] = uniform.  Skew concentrates
          mutation churn on the low keys (maximising slot recycling and
          edge-ABA on their nodes) while the high keys stay stably present
          — so a traversal corrupted in the hot zone that then misreports a
          cold key is immediately non-linearizable, instead of being
          excused by that key's own churn. *)
  batch : int;
      (** operations per batch: [1] executes the op stream one at a time
          (the historical path, byte-identical schedules); [> 1] chunks
          each thread's stream into groups of this size executed through
          the structure's batched path
          ({!Oa_core.Smr_intf.S.run_batch}), so the adversarial
          schedules also cross batch-interior operation boundaries *)
  arena_slack : int option;
      (** arena sizing: [None] (the default) is generous — every insert
          can allocate a fresh slot even if reclamation never frees one —
          so allocation pressure, and with it OA's warning/rollback
          machinery, never engages.  [Some n] sizes the arena at the
          structure's live-set ceiling plus [n] spare slots, forcing
          reclamation phases {e during} the run: OA raises warning bits
          and rolls readers back, HP scans under pressure, EBR flips
          epochs under pressure.  Use only with schemes that reclaim
          ([No_reclamation] will exhaust a tight arena and crash). *)
  elastic : bool;
      (** back the structure with an elastic arena ({!Oa_mem.Arena}) carved
          into deliberately tiny chunks (8 nodes) instead of the fixed
          bump arena, so a run crosses many chunk boundaries, triggers
          on-demand growth ([Mem_grow]) under allocation pressure, and
          sheds fully-free chunks ([Mem_shrink]) when schemes quiesce —
          exercising the allocator's grow/decommit protocol under the
          same adversarial schedules and conservation oracle *)
  seed : int;
}

(* Few keys and a mutation-heavy mix: every slot in the arena is retired
   and recycled many times within a 60-operation run, so an unprotected
   traversal is very likely to hold a pointer into a node that a scan
   frees and an allocation rewrites.  Calibrated empirically: with this
   shape, the random-walk policy plus a [Phase_crossing] hold catches the
   broken-HP scheme on ~15% of seeds (a 100-seed budget misses with
   probability ~1e-7) while all six real schemes stay clean. *)
let default =
  {
    structure = E.Linked_list;
    scheme = Real Schemes.Optimistic_access;
    threads = 3;
    ops_per_thread = 20;
    key_range = 2;
    prefill = 2;
    mix = Oa_workload.Op_mix.v ~read_pct:20 ~insert_pct:40 ~delete_pct:40;
    theta = None;
    batch = 1;
    arena_slack = None;
    elastic = false;
    seed = 0;
  }

type failure_kind =
  | Non_linearizable
  | Invariant of string
  | Crash of string

let pp_failure_kind ppf = function
  | Non_linearizable -> Format.pp_print_string ppf "non-linearizable history"
  | Invariant m -> Format.fprintf ppf "invariant violation: %s" m
  | Crash m -> Format.fprintf ppf "crash: %s" m

type failure = { kind : failure_kind; history : L.event list }

type outcome = {
  result : (unit, failure) Stdlib.result;
  decisions : int array;  (** chosen tid at every scheduler decision *)
  overrides : (int * int) list;
      (** sparse schedule: deviations from the default continuation *)
  steps : int;
  smr : I.stats;
      (** aggregate scheme statistics at the end of the run — lets tests
          assert on internals (e.g. that OA rolled back inside a batch) *)
}

type mode =
  | Drive of { policy : Policy.spec; faults : Fault.spec list }
  | Replay of (int * int) list

(* Structure-agnostic operation bundle, as in Oa_harness.Experiment.
   [op_batch n f] runs thunks [f 0 .. f (n-1)], in that order, through
   the structure's batched path. *)
type ops = {
  op_contains : int -> bool;
  op_insert : int -> bool;
  op_delete : int -> bool;
  op_batch : int -> (int -> unit) -> unit;
}

let max_history = 62

let validate_spec sc =
  if sc.threads < 1 then invalid_arg "Oa_check.Scenario: threads must be >= 1";
  if sc.ops_per_thread < 1 then
    invalid_arg "Oa_check.Scenario: ops_per_thread must be >= 1";
  (* The audit reads of every key at quiescence join the checked history,
     so they count against the Lincheck bound too. *)
  if (sc.threads * sc.ops_per_thread) + sc.key_range > max_history then
    invalid_arg
      (Printf.sprintf
         "Oa_check.Scenario: %d threads x %d ops + %d audit reads exceeds \
          the %d-operation Lincheck bound"
         sc.threads sc.ops_per_thread sc.key_range max_history);
  if sc.prefill > sc.key_range then
    invalid_arg "Oa_check.Scenario: prefill exceeds key_range";
  if sc.batch < 1 then invalid_arg "Oa_check.Scenario: batch must be >= 1";
  match sc.arena_slack with
  | Some n when n < 1 ->
      invalid_arg "Oa_check.Scenario: arena_slack must be >= 1"
  | _ -> ()

(* Generous arena: the run must complete even if reclamation never frees a
   single node (e.g. a victim thread parked across the whole run under
   EBR), so budget every insert plus per-thread pool slack on top.  Under
   [Some slack] we budget only the live-set ceiling — the key range, an
   in-flight node and one spare, and local pool chunks per thread — plus
   the requested slack, so sustained churn must reclaim to keep
   allocating.  List and bucket heads are words outside the arena. *)
let arena_capacity sc =
  match sc.arena_slack with
  | None ->
      sc.prefill
      + (sc.threads * sc.ops_per_thread)
      + (8 * (sc.threads + 2))
      + (2 * sc.prefill) + 64
  | Some slack -> sc.key_range + 2 + (2 * sc.threads) + slack

let smr_config ~hp_slots ~max_cas =
  {
    I.chunk_size = 1;
    hp_slots;
    max_cas;
    retire_threshold = 1;
    epoch_threshold = 2;
    anchor_interval = 4;
    ebr_op_work = 0;
  }

let run ~mode sc =
  validate_spec sc;
  let sched =
    Sched.create ~seed:sc.seed ~quantum:0 ~max_cycles:20_000_000 CM.amd_opteron
  in
  let module R =
    (val Oa_runtime.Sim_backend.of_sched ~max_threads:(sc.threads + 1) sched)
  in
  let sink = Oa_obs.Sink.create () in
  let module Sch = Schemes.Make (R) in
  let (module S : Sch.S_with_r) =
    match sc.scheme with
    | Real id -> Sch.pack id
    | Broken_hp ->
        let module B = Oa_smr.Hazard_pointers.Make (R) in
        B.unsafe_skip_publication := true;
        (module B : Sch.S_with_r)
    | Broken_vbr ->
        let module B = Oa_smr.Vbr.Make (R) in
        B.unsafe_skip_validation := true;
        (module B : Sch.S_with_r)
  in
  let capacity = arena_capacity sc in
  (* Elastic runs use deliberately tiny chunks so even a 60-operation
     scenario crosses several chunk boundaries and decommits on quiesce. *)
  let elastic = sc.elastic in
  let chunk_nodes = if sc.elastic then Some 8 else None in
  let register, validate, to_list, scheme_stats =
    match sc.structure with
    | E.Linked_list ->
        let module Ll = Oa_structures.Linked_list.Make (S) in
        let cfg = smr_config ~hp_slots:3 ~max_cas:1 in
        let t = Ll.create ~obs:sink ~elastic ?chunk_nodes ~capacity cfg in
        ( (fun _tid ->
            let ctx = Ll.register t in
            {
              op_contains = Ll.contains ctx;
              op_insert = Ll.insert ctx;
              op_delete = Ll.delete ctx;
              op_batch = Ll.run_batch ctx;
            }),
          (fun () -> Ll.validate t ~limit:(4 * capacity)),
          (fun () -> Ll.to_list t),
          fun () -> S.stats (Ll.smr t) )
    | E.Hash_table ->
        let module H = Oa_structures.Hash_table.Make (S) in
        let cfg = smr_config ~hp_slots:3 ~max_cas:1 in
        let t =
          H.create ~obs:sink ~elastic ?chunk_nodes ~capacity
            ~expected_size:(max 2 sc.prefill) cfg
        in
        ( (fun _tid ->
            let ctx = H.register t in
            {
              op_contains = H.contains t ctx;
              op_insert = H.insert t ctx;
              op_delete = H.delete t ctx;
              op_batch = H.run_batch ctx;
            }),
          (fun () -> H.validate t ~limit:(4 * capacity)),
          (fun () -> List.sort compare (H.to_list t)),
          fun () -> S.stats (H.smr t) )
    | E.Skip_list ->
        let module Sl = Oa_structures.Skip_list.Make (S) in
        let cfg =
          smr_config ~hp_slots:Sl.hp_slots_needed ~max_cas:Sl.max_cas_needed
        in
        let t = Sl.create ~obs:sink ~elastic ?chunk_nodes ~capacity cfg in
        ( (fun tid ->
            let ctx = Sl.register ~seed:(sc.seed + tid + 13) t in
            {
              op_contains = Sl.contains ctx;
              op_insert = Sl.insert ctx;
              op_delete = Sl.delete ctx;
              op_batch = Sl.run_batch ctx;
            }),
          (fun () -> Sl.validate t ~limit:(4 * capacity)),
          (fun () -> Sl.to_list t),
          fun () -> S.stats (Sl.smr t) )
  in
  (* Prefill sequentially under the default policy so that replay only has
     to pin the measured run's decisions. *)
  R.par_run ~n:1 (fun _ ->
      let ops = register (-1) in
      for k = 1 to sc.prefill do
        ignore (ops.op_insert k)
      done);
  let initial = to_list () in
  let probe () =
    Oa_obs.Sink.total sink Oa_obs.Event.Phase_flip
    + Oa_obs.Sink.total sink Oa_obs.Event.Hazard_scan
  in
  let engine =
    Engine.install sched ~n:sc.threads
      (match mode with
      | Drive { policy; faults } -> Engine.Drive { policy; faults; probe }
      | Replay ovs -> Engine.Replay ovs)
  in
  let logs = Array.make sc.threads [] in
  let crash =
    Fun.protect ~finally:(fun () -> Engine.uninstall engine) @@ fun () ->
    try
      R.par_run ~n:sc.threads (fun tid ->
          let ops = register tid in
          let rng = SM.create ((sc.seed * 7919) + tid) in
          let dist =
            match sc.theta with
            | None -> Oa_workload.Key_dist.uniform ~range:sc.key_range
            | Some theta -> Oa_workload.Key_dist.zipf ~range:sc.key_range ~theta
          in
          let draw () =
            let key = Oa_workload.Key_dist.draw dist rng in
            let kind =
              match Oa_workload.Op_mix.draw sc.mix rng with
              | Oa_workload.Op_mix.Contains -> L.Contains
              | Oa_workload.Op_mix.Insert -> L.Insert
              | Oa_workload.Op_mix.Delete -> L.Delete
            in
            (kind, key)
          in
          let record kind key =
            let start_ts = Engine.now engine in
            let result =
              match kind with
              | L.Contains -> ops.op_contains key
              | L.Insert -> ops.op_insert key
              | L.Delete -> ops.op_delete key
            in
            let end_ts = Engine.now engine in
            logs.(tid) <-
              { L.tid; kind; key; result; start_ts; end_ts } :: logs.(tid)
          in
          if sc.batch <= 1 then
            for _ = 1 to sc.ops_per_thread do
              let kind, key = draw () in
              record kind key
            done
          else begin
            (* Chunk the same op stream (same rng draws, in order) into
               groups executed through the structure's batched path; the
               history events are recorded inside each thunk, so a batch
               logs in execution order, which is what Lincheck checks
               against. *)
            let remaining = ref sc.ops_per_thread in
            while !remaining > 0 do
              let n = min sc.batch !remaining in
              remaining := !remaining - n;
              let specs = Array.make n (L.Contains, 0) in
              for i = 0 to n - 1 do
                specs.(i) <- draw ()
              done;
              ops.op_batch n (fun i ->
                  let kind, key = specs.(i) in
                  record kind key)
            done
          end);
      None
    with
    | Sched.Thread_failure (tid, e) ->
        Some (Printf.sprintf "thread %d: %s" tid (Printexc.to_string e))
    | Sched.Cycle_limit_exceeded -> Some "cycle limit exceeded (livelock?)"
  in
  let history =
    List.concat_map (fun l -> List.rev l) (Array.to_list logs)
  in
  let check_invariants () =
    match validate () with
    | Error m -> Some (Invariant m)
    | Ok () ->
        let stats = scheme_stats () in
        let retired = Oa_obs.Sink.total sink Oa_obs.Event.Retire in
        let reclaimed = Oa_obs.Sink.total sink Oa_obs.Event.Reclaim in
        if stats.I.recycled > stats.I.retires then
          Some
            (Invariant
               (Printf.sprintf
                  "reclamation conservation: recycled %d > retired %d \
                   (double free?)"
                  stats.I.recycled stats.I.retires))
        else if reclaimed > retired then
          Some
            (Invariant
               (Printf.sprintf
                  "obs conservation: reclaim events %d > retire events %d"
                  reclaimed retired))
        else None
  in
  (* The final structure contents, re-expressed as per-key audit reads at
     quiescence (timestamped after every real operation).  Linearizability
     of [history @ audit] then implies the final contents are exactly the
     net effect of some linearization — checking the final key-set
     directly against any fixed replay order (e.g. by end timestamp) would
     reject legal executions where overlapping operations linearized in
     the other order. *)
  let audit () =
    let final = to_list () in
    let base = Engine.now engine + 1 in
    List.init sc.key_range (fun i ->
        let key = i + 1 in
        {
          L.tid = sc.threads;
          kind = L.Contains;
          key;
          result = List.mem key final;
          start_ts = base + i;
          end_ts = base + i;
        })
  in
  let result =
    match crash with
    | Some m -> Error { kind = Crash m; history }
    | None -> (
        match check_invariants () with
        | Some kind -> Error { kind; history }
        | None ->
            let history = history @ audit () in
            if L.check ~initial history then Ok ()
            else Error { kind = Non_linearizable; history })
  in
  {
    result;
    decisions = Engine.decisions engine;
    overrides = Engine.overrides engine;
    steps = Engine.now engine;
    smr = scheme_stats ();
  }
