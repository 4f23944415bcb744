(* Tests for the Oa_check explorer: policy determinism, replay fidelity,
   token round-trips, shrinker soundness, and the end-to-end guarantees —
   the deliberately broken HP and VBR schemes are caught within a bounded
   seed budget while every real scheme stays clean under the same
   budget. *)

module Sc = Oa_check.Scenario
module P = Oa_check.Policy
module F = Oa_check.Fault
module X = Oa_check.Explore
module T = Oa_check.Token
module I = Oa_core.Smr_intf
module Schemes = Oa_smr.Schemes

let drive ?(policy = P.Random_walk) ?(faults = []) ?(seed = 7) sc =
  Sc.run ~mode:(Sc.Drive { policy = { P.policy; seed }; faults }) sc

let adversarial = F.specs_of_name ~threads:3 "crossing" |> Option.get

(* --- scheduling policies --- *)

let test_policy_determinism () =
  (* Same scenario, same policy, same seed: bit-identical decision traces
     and the same verdict — the whole subsystem's replay story rests on
     this. *)
  List.iter
    (fun policy ->
      let a = drive ~policy ~faults:adversarial Sc.default in
      let b = drive ~policy ~faults:adversarial Sc.default in
      Alcotest.(check (array int))
        (P.base_name policy ^ " decisions")
        a.Sc.decisions b.Sc.decisions;
      Alcotest.(check bool)
        (P.base_name policy ^ " verdict")
        (Result.is_ok a.Sc.result) (Result.is_ok b.Sc.result))
    [ P.Fair; P.Random_walk; P.Pct { depth = 3; horizon = 20_000 } ]

let test_policy_seed_matters () =
  (* Different policy seeds should explore different schedules. *)
  let a = drive ~seed:1 Sc.default in
  let b = drive ~seed:2 Sc.default in
  Alcotest.(check bool)
    "different seeds diverge" false
    (a.Sc.decisions = b.Sc.decisions)

let test_fair_is_default () =
  (* The fair policy is exactly the default continuation, so driving with
     it records no overrides: replay tokens from fair runs are empty. *)
  let o = drive ~policy:P.Fair Sc.default in
  Alcotest.(check int) "no overrides" 0 (List.length o.Sc.overrides)

let test_replay_reproduces_drive () =
  (* Replaying a drive's recorded override list reproduces its decision
     trace exactly, adversarial policy and faults included. *)
  let a = drive ~faults:adversarial ~seed:11 Sc.default in
  let b = Sc.run ~mode:(Sc.Replay a.Sc.overrides) Sc.default in
  Alcotest.(check (array int)) "replayed decisions" a.Sc.decisions b.Sc.decisions;
  Alcotest.(check int) "replayed steps" a.Sc.steps b.Sc.steps

(* --- scenario validation --- *)

let test_scenario_bounds () =
  let too_big = { Sc.default with Sc.ops_per_thread = 21 } in
  Alcotest.check_raises "62-op bound"
    (Invalid_argument
       "Oa_check.Scenario: 3 threads x 21 ops + 2 audit reads exceeds the \
        62-operation Lincheck bound")
    (fun () -> ignore (drive too_big));
  let bad_prefill = { Sc.default with Sc.prefill = 3 } in
  Alcotest.check_raises "prefill bound"
    (Invalid_argument "Oa_check.Scenario: prefill exceeds key_range")
    (fun () -> ignore (drive bad_prefill));
  let bad_batch = { Sc.default with Sc.batch = 0 } in
  Alcotest.check_raises "batch bound"
    (Invalid_argument "Oa_check.Scenario: batch must be >= 1")
    (fun () -> ignore (drive bad_batch))

(* --- replay tokens --- *)

let test_token_roundtrip () =
  let sc =
    {
      Sc.default with
      Sc.scheme = Sc.Broken_hp;
      theta = Some 0.9;
      batch = 4;
      arena_slack = Some 6;
      seed = 42;
    }
  in
  let ovs = [ (3, 1); (97, 0); (1024, 2) ] in
  let token = T.encode sc ovs in
  match T.decode token with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok (sc', ovs') ->
      Alcotest.(check bool) "scenario round-trips" true (sc = sc');
      Alcotest.(check (list (pair int int))) "overrides round-trip" ovs ovs'

let test_token_uniform_roundtrip () =
  let token = T.encode Sc.default [] in
  match T.decode token with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok (sc', ovs') ->
      Alcotest.(check bool) "default round-trips" true (Sc.default = sc');
      Alcotest.(check (list (pair int int))) "empty overrides" [] ovs'

let test_token_rejects_garbage () =
  let is_error t = Result.is_error (T.decode t) in
  List.iter
    (fun t -> Alcotest.(check bool) t true (is_error t))
    [
      "garbage";
      "oacheck9:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b1:a-:e0:";
      (* superseded versions must be rejected rather than silently
         defaulted or re-indexed — replay is exact or nothing: v1 predates
         the batch/arena fields, v2 the elastic field, v3 the VBR scheme
         vocabulary *)
      "oacheck1:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:";
      "oacheck2:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b1:a-:";
      "oacheck3:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b1:a-:e0:";
      (* current version, missing the elastic field *)
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b1:a-:";
      "oacheck4:pile:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b1:a-:e0:";
      "oacheck4:list:nope:t3:o20:k2:p2:m20-40-40:z-:s0:b1:a-:e0:";
      "oacheck4:list:oa:tx:o20:k2:p2:m20-40-40:z-:s0:b1:a-:e0:";
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-41:z-:s0:b1:a-:e0:";
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-40:z1.50:s0:b1:a-:e0:";
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b1:a-:e0:12.0,boom";
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b1:a-:e0:-3.0";
      (* malformed batch field: zero, negative, non-numeric *)
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b0:a-:e0:";
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b-1:a-:e0:";
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:bx:a-:e0:";
      (* malformed arena field: zero slack, non-numeric *)
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b1:a0:e0:";
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b1:ax:e0:";
      (* malformed elastic field *)
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b1:a-:e2:";
      "oacheck4:list:oa:t3:o20:k2:p2:m20-40-40:z-:s0:b1:a-:ex:";
    ]

let contains_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_token_rejects_pre_vbr_version () =
  (* A perfectly well-formed version-3 token: the scheme field indexes a
     registry without VBR, so it must bounce off the version gate with a
     message naming the version now expected, not decode field-by-field. *)
  match T.decode "oacheck3:list:oa:t3:o18:k6:p6:m20-40-40:z-:s17:b1:a-:e0:" with
  | Ok _ -> Alcotest.fail "pre-VBR oacheck3 token was accepted"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the expected version: %s" m)
        true
        (contains_substring ~needle:"oacheck4" m)

let test_token_vbr_roundtrip () =
  (* Both new vocabulary entries survive an encode/decode cycle. *)
  List.iter
    (fun scheme ->
      let sc = { Sc.default with Sc.scheme; seed = 5 } in
      match T.decode (T.encode sc [ (12, 2) ]) with
      | Error m -> Alcotest.failf "decode failed: %s" m
      | Ok (sc', ovs') ->
          Alcotest.(check bool)
            (Sc.scheme_name scheme ^ " scenario round-trips")
            true (sc = sc');
          Alcotest.(check (list (pair int int)))
            "overrides round-trip" [ (12, 2) ] ovs')
    [ Sc.Real Schemes.Version_based; Sc.Broken_vbr ]

(* --- the end-to-end guarantees --- *)

let find_broken_hp =
  (* Shared by the detection and shrinking tests; memoised so the suite
     explores only once. *)
  lazy
    (let sc = { Sc.default with Sc.scheme = Sc.Broken_hp } in
     X.run ~policy:P.Random_walk ~faults:adversarial ~seeds:100 ~seed0:0
       ~shrink_budget:150 sc)

let test_broken_hp_is_caught () =
  match Lazy.force find_broken_hp with
  | X.Clean _ -> Alcotest.fail "broken HP survived 100 seeds"
  | X.Unreproducible { token; _ } ->
      Alcotest.failf "shrunk token did not reproduce: %s" token
  | X.Failed r ->
      Alcotest.(check bool)
        "found within budget" true
        (r.X.seeds_tried >= 1 && r.X.seeds_tried <= 100);
      Alcotest.(check bool)
        "history non-empty" true
        (List.length r.X.history > 0)

let test_shrunk_token_replays () =
  match Lazy.force find_broken_hp with
  | X.Failed r -> (
      (* The reported token must reproduce the failure, twice (replay is
         deterministic), and be no larger than the un-shrunk schedule. *)
      let replay_fails () =
        match T.replay r.X.token with
        | Ok (_, o) -> Result.is_error o.Sc.result
        | Error m -> Alcotest.failf "token decode failed: %s" m
      in
      Alcotest.(check bool) "replay fails" true (replay_fails ());
      Alcotest.(check bool) "replay fails again" true (replay_fails ());
      match T.decode r.X.token with
      | Error m -> Alcotest.failf "decode failed: %s" m
      | Ok (_, ovs) ->
          Alcotest.(check bool)
            "shrunk no larger" true
            (List.length ovs <= r.X.overrides_before))
  | _ -> Alcotest.fail "broken HP not caught"

let test_shrinker_sound () =
  (* Directly: whatever Shrink.minimize returns must still fail, and the
     shrinker must never spend more than its replay budget. *)
  match Lazy.force find_broken_hp with
  | X.Failed r -> (
      let sc = r.X.scenario in
      match T.decode r.X.token with
      | Error m -> Alcotest.failf "decode failed: %s" m
      | Ok (_, ovs) ->
          let ovs', spent = Oa_check.Shrink.minimize ~budget:60 sc ovs in
          Alcotest.(check bool) "budget respected" true (spent <= 60);
          Alcotest.(check bool)
            "minimized still fails" true
            (Oa_check.Shrink.fails sc ovs'))
  | _ -> Alcotest.fail "broken HP not caught"

let find_broken_vbr =
  (* Same battery, same budget as the broken-HP sweep: the VBR variant
     that skips post-read version validation chains through recycled
     nodes without noticing the clock moved. *)
  lazy
    (let sc = { Sc.default with Sc.scheme = Sc.Broken_vbr } in
     X.run ~policy:P.Random_walk ~faults:adversarial ~seeds:100 ~seed0:0
       ~shrink_budget:150 sc)

let test_broken_vbr_is_caught () =
  match Lazy.force find_broken_vbr with
  | X.Clean _ -> Alcotest.fail "broken VBR survived 100 seeds"
  | X.Unreproducible { token; _ } ->
      Alcotest.failf "shrunk token did not reproduce: %s" token
  | X.Failed r ->
      Alcotest.(check bool)
        "found within budget" true
        (r.X.seeds_tried >= 1 && r.X.seeds_tried <= 100);
      Alcotest.(check bool)
        "history non-empty" true
        (List.length r.X.history > 0)

let test_vbr_clean_all_policies () =
  (* The real scheme survives the adversarial battery under every
     scheduling policy — the random-walk sweep over all schemes below
     covers one of the three; fair and PCT get their own pass here. *)
  List.iter
    (fun policy ->
      let sc = { Sc.default with Sc.scheme = Sc.Real Schemes.Version_based } in
      match
        X.run ~policy ~faults:adversarial ~seeds:10 ~seed0:0 ~shrink_budget:0
          sc
      with
      | X.Clean _ -> ()
      | X.Failed r ->
          Alcotest.failf "VBR under %s failed at seed %d: %s"
            (P.base_name policy) r.X.seed
            (Format.asprintf "%a" Sc.pp_failure_kind r.X.kind)
      | X.Unreproducible { seed; _ } ->
          Alcotest.failf "VBR under %s unreproducible at seed %d"
            (P.base_name policy) seed)
    [ P.Fair; P.Random_walk; P.Pct { depth = 3; horizon = 20_000 } ]

let test_real_schemes_clean () =
  (* Every real scheme survives the same adversarial budget that catches
     the broken one.  25 seeds per scheme keeps the suite fast; the CLI
     smoke test and calibration sweeps cover larger budgets. *)
  List.iter
    (fun id ->
      let sc = { Sc.default with Sc.scheme = Sc.Real id } in
      match
        X.run ~policy:P.Random_walk ~faults:adversarial ~seeds:25 ~seed0:0
          ~shrink_budget:0 sc
      with
      | X.Clean _ -> ()
      | X.Failed r ->
          Alcotest.failf "%s failed at seed %d: %s" (Schemes.id_name id)
            r.X.seed
            (Format.asprintf "%a" Sc.pp_failure_kind r.X.kind)
      | X.Unreproducible { seed; _ } ->
          Alcotest.failf "%s unreproducible at seed %d" (Schemes.id_name id)
            seed)
    Schemes.all_ids

let test_structures_clean () =
  (* The other two structures under the default scheme: a quick sanity
     pass that the scenario runner drives them correctly. *)
  List.iter
    (fun structure ->
      let sc = { Sc.default with Sc.structure } in
      match
        X.run ~policy:P.Random_walk ~faults:adversarial ~seeds:10 ~seed0:0
          ~shrink_budget:0 sc
      with
      | X.Clean _ -> ()
      | X.Failed r ->
          Alcotest.failf "%s failed at seed %d"
            (Oa_harness.Experiment.structure_name structure)
            r.X.seed
      | X.Unreproducible { seed; _ } ->
          Alcotest.failf "unreproducible at seed %d" seed)
    [ Oa_harness.Experiment.Hash_table; Oa_harness.Experiment.Skip_list ]

(* --- the batched execution path --- *)

let batchshift = F.specs_of_name ~threads:3 "batchshift" |> Option.get

let test_batchshift_registered () =
  (* The batch-boundary injector is reachable by name, and stays out of
     the calibrated "all" battery (adding it would shift the broken-HP
     catch-rate calibration). *)
  Alcotest.(check int) "one spec" 1 (List.length batchshift);
  Alcotest.(check bool)
    "not in the default battery" false
    (List.exists
       (fun s -> F.name s = "batchshift")
       (F.all_specs ~threads:3))

let test_batched_replay_reproduces_drive () =
  (* Replay fidelity must survive the batched path: same overrides, same
     decision trace, even when ops are regrouped through run_batch. *)
  let sc = { Sc.default with Sc.batch = 5 } in
  let a = drive ~faults:batchshift ~seed:13 sc in
  let b = Sc.run ~mode:(Sc.Replay a.Sc.overrides) sc in
  Alcotest.(check (array int)) "replayed decisions" a.Sc.decisions b.Sc.decisions;
  Alcotest.(check int) "replayed steps" a.Sc.steps b.Sc.steps

let sweep_clean ~name ~seeds ~faults sc =
  match X.run ~policy:P.Random_walk ~faults ~seeds ~seed0:0 ~shrink_budget:0 sc with
  | X.Clean _ -> ()
  | X.Failed r ->
      Alcotest.failf "%s failed at seed %d: %s" name r.X.seed
        (Format.asprintf "%a" Sc.pp_failure_kind r.X.kind)
  | X.Unreproducible { seed; _ } ->
      Alcotest.failf "%s unreproducible at seed %d" name seed

let test_batched_schemes_clean () =
  (* Every real scheme survives adversarial schedules that cross
     batch-interior operation boundaries.  Batch 4 over 20 ops per thread
     exercises full groups plus a ragged tail. *)
  List.iter
    (fun id ->
      let sc =
        { Sc.default with Sc.scheme = Sc.Real id; Sc.batch = 4 }
      in
      sweep_clean ~name:(Schemes.id_name id) ~seeds:10 ~faults:adversarial sc)
    Schemes.all_ids

let test_batched_structures_clean () =
  (* Hash table and skip list under the batched path and the
     batch-boundary injector. *)
  List.iter
    (fun structure ->
      let sc = { Sc.default with Sc.structure; Sc.batch = 4 } in
      sweep_clean
        ~name:(Oa_harness.Experiment.structure_name structure)
        ~seeds:10 ~faults:batchshift sc)
    [
      Oa_harness.Experiment.Linked_list;
      Oa_harness.Experiment.Hash_table;
      Oa_harness.Experiment.Skip_list;
    ]

let test_broken_hp_caught_batched () =
  (* The explorer's detection power must not regress when ops execute in
     batches: the hazard-carry fast path only ever reuses *validated*
     hazards, so the broken scheme (which never validates) stays just as
     catchable. *)
  let sc = { Sc.default with Sc.scheme = Sc.Broken_hp; Sc.batch = 4 } in
  match
    X.run ~policy:P.Random_walk ~faults:adversarial ~seeds:100 ~seed0:0
      ~shrink_budget:0 sc
  with
  | X.Clean _ -> Alcotest.fail "broken HP survived 100 batched seeds"
  | X.Unreproducible { seed; _ } ->
      Alcotest.failf "unreproducible at seed %d" seed
  | X.Failed _ -> ()

(* Mutation-heavy batched scenario on a tight arena: allocation pressure
   forces reclamation phases during the run, so OA raises warning bits
   mid-batch.  Calibrated empirically: at slack 1 every probed seed shows
   OA rollbacks with OA failure-free; slack 4 is comfortable for every
   reclaiming scheme (HP can pin up to hp_slots x threads nodes, so it
   needs the extra headroom). *)
let tight_batched ~slack scheme =
  {
    Sc.default with
    Sc.scheme;
    Sc.key_range = 4;
    Sc.prefill = 4;
    Sc.ops_per_thread = 18;
    Sc.mix = Oa_workload.Op_mix.v ~read_pct:10 ~insert_pct:45 ~delete_pct:45;
    Sc.batch = 4;
    Sc.arena_slack = Some slack;
  }

let test_oa_rolls_back_inside_batch () =
  (* The OA batch entry clears a pending warning bit without rolling back
     (nothing is in flight at a batch boundary), but a warning raised
     *inside* the batch must still trigger the read-barrier rollback.
     Drive batched OA under allocation pressure and the batch-boundary
     injector until a run shows restarts; every run must stay
     linearizable, and reclamation must actually have happened
     (phases > 0, recycled <= retired). *)
  let sc = tight_batched ~slack:1 (Sc.Real Schemes.Optimistic_access) in
  let rolled_back = ref false in
  let seed = ref 0 in
  while (not !rolled_back) && !seed < 20 do
    let o = drive ~faults:batchshift ~seed:!seed sc in
    (match o.Sc.result with
    | Ok () -> ()
    | Error f ->
        Alcotest.failf "OA failed at seed %d: %s" !seed
          (Format.asprintf "%a" Sc.pp_failure_kind f.Sc.kind));
    if o.Sc.smr.I.restarts > 0 then begin
      rolled_back := true;
      Alcotest.(check bool) "reclamation phases ran" true (o.Sc.smr.I.phases > 0);
      Alcotest.(check bool)
        "conservation" true
        (o.Sc.smr.I.recycled <= o.Sc.smr.I.retires)
    end;
    incr seed
  done;
  Alcotest.(check bool) "observed an in-batch rollback" true !rolled_back

let test_vbr_clean_elastic () =
  (* The CLI's --churn flag is Scenario.elastic: VBR on the elastic arena
     (chunks decommitted and re-mapped under it) must stay clean too. *)
  let sc =
    {
      Sc.default with
      Sc.scheme = Sc.Real Schemes.Version_based;
      Sc.elastic = true;
    }
  in
  sweep_clean ~name:"VBR elastic" ~seeds:10 ~faults:adversarial sc

let test_tight_arena_schemes_clean () =
  (* The same pressure-cooker scenario, across every reclaiming scheme and
     a small seed sweep: phases fire mid-run and nothing breaks.
     No_reclamation is excluded by construction — it cannot survive a
     tight arena. *)
  List.iter
    (fun id ->
      let sc = tight_batched ~slack:4 (Sc.Real id) in
      sweep_clean ~name:(Schemes.id_name id) ~seeds:10 ~faults:batchshift sc)
    (List.filter (fun id -> id <> Schemes.No_reclamation) Schemes.all_ids)

let () =
  Alcotest.run "check"
    [
      ( "policy",
        [
          Alcotest.test_case "determinism" `Quick test_policy_determinism;
          Alcotest.test_case "seed matters" `Quick test_policy_seed_matters;
          Alcotest.test_case "fair = default" `Quick test_fair_is_default;
          Alcotest.test_case "replay = drive" `Quick test_replay_reproduces_drive;
        ] );
      ( "scenario",
        [ Alcotest.test_case "bounds" `Quick test_scenario_bounds ] );
      ( "token",
        [
          Alcotest.test_case "round-trip" `Quick test_token_roundtrip;
          Alcotest.test_case "uniform round-trip" `Quick
            test_token_uniform_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_token_rejects_garbage;
          Alcotest.test_case "rejects pre-VBR version" `Quick
            test_token_rejects_pre_vbr_version;
          Alcotest.test_case "vbr round-trip" `Quick test_token_vbr_roundtrip;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "broken HP caught" `Quick test_broken_hp_is_caught;
          Alcotest.test_case "broken VBR caught" `Quick
            test_broken_vbr_is_caught;
          Alcotest.test_case "VBR clean under all policies" `Quick
            test_vbr_clean_all_policies;
          Alcotest.test_case "VBR clean on the elastic arena" `Quick
            test_vbr_clean_elastic;
          Alcotest.test_case "shrunk token replays" `Quick
            test_shrunk_token_replays;
          Alcotest.test_case "shrinker sound" `Quick test_shrinker_sound;
          Alcotest.test_case "real schemes clean" `Quick test_real_schemes_clean;
          Alcotest.test_case "structures clean" `Quick test_structures_clean;
        ] );
      ( "batched",
        [
          Alcotest.test_case "batchshift registered" `Quick
            test_batchshift_registered;
          Alcotest.test_case "replay = drive" `Quick
            test_batched_replay_reproduces_drive;
          Alcotest.test_case "schemes clean" `Quick test_batched_schemes_clean;
          Alcotest.test_case "structures clean" `Quick
            test_batched_structures_clean;
          Alcotest.test_case "broken HP caught" `Quick
            test_broken_hp_caught_batched;
          Alcotest.test_case "OA rolls back in batch" `Quick
            test_oa_rolls_back_inside_batch;
          Alcotest.test_case "tight arena clean" `Quick
            test_tight_arena_schemes_clean;
        ] );
    ]
