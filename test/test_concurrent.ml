(* Concurrent stress: random mixed workloads with per-key ownership
   accounting, tight arenas (reclamation constantly active), many seeds on
   the simulated backend plus true-preemption runs on the real backend. *)

module Ptr = Oa_mem.Ptr
module I = Oa_core.Smr_intf
module CM = Oa_simrt.Cost_model
module SM = Oa_util.Splitmix

let cfg =
  {
    I.default_config with
    I.chunk_size = 4;
    retire_threshold = 32;
    epoch_threshold = 8;
    anchor_interval = 64;
  }

(* Each thread owns a disjoint key stripe and tracks the expected final
   membership of its keys; lookups hit all stripes (read-only, unchecked
   result).  This gives full final-state checking without a linearizability
   checker. *)
let stress_list (module R : Oa_runtime.Runtime_intf.S) scheme ~threads ~rounds
    ~stripe ~capacity =
  let module Sch = Oa_smr.Schemes.Make (R) in
  let module S = (val Sch.pack scheme) in
  let module L = Oa_structures.Linked_list.Make (S) in
  let t = L.create ~capacity cfg in
  let expected = Array.make threads [] in
  R.par_run ~n:threads (fun tid ->
      let ctx = L.register t in
      let rng = SM.create (500 + tid) in
      let base = tid * stripe in
      let mine = Array.make stripe false in
      for _ = 1 to rounds do
        let k = base + SM.below rng stripe in
        match SM.below rng 10 with
        | 0 | 1 | 2 ->
            let r = L.insert ctx k in
            if r <> not mine.(k - base) then failwith "insert result wrong";
            mine.(k - base) <- true
        | 3 | 4 ->
            let r = L.delete ctx k in
            if r <> mine.(k - base) then failwith "delete result wrong";
            mine.(k - base) <- false
        | _ ->
            (* cross-stripe read; result race-dependent, must not crash *)
            ignore (L.contains ctx (SM.below rng (threads * stripe)))
      done;
      let acc = ref [] in
      for i = stripe - 1 downto 0 do
        if mine.(i) then acc := (base + i) :: !acc
      done;
      expected.(tid) <- !acc);
  let want = List.sort compare (List.concat (Array.to_list expected)) in
  let got = L.to_list t in
  if want <> got then Alcotest.fail "final membership mismatch";
  (match L.validate t ~limit:(100 * capacity) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  S.stats (L.smr t)

let stress_skip (module R : Oa_runtime.Runtime_intf.S) scheme ~threads ~rounds
    ~stripe ~capacity =
  let module Sch = Oa_smr.Schemes.Make (R) in
  let module S = (val Sch.pack scheme) in
  let module Sl = Oa_structures.Skip_list.Make (S) in
  let skip_cfg =
    { cfg with I.hp_slots = Sl.hp_slots_needed; max_cas = Sl.max_cas_needed }
  in
  let t = Sl.create ~capacity skip_cfg in
  let expected = Array.make threads [] in
  R.par_run ~n:threads (fun tid ->
      let ctx = Sl.register ~seed:(40 + tid) t in
      let rng = SM.create (900 + tid) in
      let base = tid * stripe in
      let mine = Array.make stripe false in
      for _ = 1 to rounds do
        let k = base + SM.below rng stripe in
        match SM.below rng 10 with
        | 0 | 1 | 2 ->
            let r = Sl.insert ctx k in
            if r <> not mine.(k - base) then failwith "insert result wrong";
            mine.(k - base) <- true
        | 3 | 4 ->
            let r = Sl.delete ctx k in
            if r <> mine.(k - base) then failwith "delete result wrong";
            mine.(k - base) <- false
        | _ -> ignore (Sl.contains ctx (SM.below rng (threads * stripe)))
      done;
      let acc = ref [] in
      for i = stripe - 1 downto 0 do
        if mine.(i) then acc := (base + i) :: !acc
      done;
      expected.(tid) <- !acc);
  let want = List.sort compare (List.concat (Array.to_list expected)) in
  if want <> Sl.to_list t then Alcotest.fail "final membership mismatch";
  (match Sl.validate t ~limit:(100 * capacity) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  S.stats (Sl.smr t)

(* Tight arena on the sim backend: recycling must actually run for the
   reclaiming schemes. *)
let test_list_tight_arena scheme seed () =
  let r = Oa_runtime.Sim_backend.make ~seed ~max_threads:4 CM.amd_opteron in
  let module R = (val r) in
  let capacity =
    (* NoRecl genuinely needs room for every allocation; OA recycles only
       under allocation pressure, so its arena must be tightest *)
    match scheme with
    | Oa_smr.Schemes.No_reclamation -> 16_384
    | Oa_smr.Schemes.Optimistic_access -> 224
    | _ -> 640
  in
  let st =
    stress_list (module R) scheme ~threads:4 ~rounds:1_200 ~stripe:16 ~capacity
  in
  if scheme <> Oa_smr.Schemes.No_reclamation then
    Alcotest.(check bool) "reclamation was exercised" true (st.I.recycled > 0)

let test_skip_tight_arena scheme seed () =
  let r = Oa_runtime.Sim_backend.make ~seed ~max_threads:4 CM.amd_opteron in
  let module R = (val r) in
  let capacity =
    match scheme with
    | Oa_smr.Schemes.No_reclamation -> 16_384
    | Oa_smr.Schemes.Optimistic_access -> 256
    | _ -> 800
  in
  let st =
    stress_skip (module R) scheme ~threads:4 ~rounds:800 ~stripe:12 ~capacity
  in
  if scheme <> Oa_smr.Schemes.No_reclamation then
    Alcotest.(check bool) "reclamation was exercised" true (st.I.recycled > 0)

(* The real backend under true preemptive domains (fewer rounds:
   wall-clock).  Conservation of retires vs recycles must hold. *)

let check_conservation st =
  Alcotest.(check bool) "ops ran" true (st.I.allocs > 0);
  Alcotest.(check bool)
    "conservation: recycled <= retires" true
    (st.I.recycled <= st.I.retires)

let test_list_real scheme () =
  let module R = (val Oa_runtime.Real_backend.make ()) in
  check_conservation
    (stress_list (module R) scheme ~threads:4 ~rounds:2_000 ~stripe:16
       ~capacity:40_000)

let test_skip_real scheme () =
  let module R = (val Oa_runtime.Real_backend.make ()) in
  check_conservation
    (stress_skip (module R) scheme ~threads:4 ~rounds:1_000 ~stripe:12
       ~capacity:40_000)

(* OA under maximal interleaving resolution: quantum 0 explores an exact
   access-level interleaving; several seeds. *)
let test_oa_quantum0_seeds () =
  List.iter
    (fun seed ->
      let r =
        Oa_runtime.Sim_backend.make ~seed ~quantum:0 ~max_threads:3
          CM.amd_opteron
      in
      let module R = (val r) in
      ignore
        (stress_list (module R) Oa_smr.Schemes.Optimistic_access ~threads:3
           ~rounds:400 ~stripe:8 ~capacity:400))
    [ 11; 22; 33; 44; 55; 66; 77 ]

let scheme_cases name f =
  List.map
    (fun s ->
      Alcotest.test_case
        (Printf.sprintf "%s (%s)" name (Oa_smr.Schemes.id_name s))
        `Quick (f s))
    Oa_smr.Schemes.all_ids

let () =
  Alcotest.run "concurrent"
    [
      ( "sim tight arena",
        scheme_cases "list" (fun s -> test_list_tight_arena s 7)
        @ scheme_cases "list seed2" (fun s -> test_list_tight_arena s 1234)
        @ scheme_cases "skip" (fun s -> test_skip_tight_arena s 99) );
      ( "real backend",
        scheme_cases "list flat" test_list_real
        @ scheme_cases "skip flat" test_skip_real );
      ( "exact interleavings",
        [ Alcotest.test_case "OA quantum 0, 7 seeds" `Quick test_oa_quantum0_seeds ]
      );
    ]
