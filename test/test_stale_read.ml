(* The central mechanism of the paper, demonstrated deterministically.

   A reader takes a pointer into the list and stalls.  Meanwhile a worker
   logically deletes the node, physically unlinks it (proper retire),
   drives the allocator through enough churn that the node's arena slot is
   recycled and rewritten.  When the reader resumes:

   - a raw read through its stale pointer returns the NEW owner's data —
     the broken invariant the paper embraces (reads of reclaimed memory
     happen, but never fault: Assumption 3.1);
   - the optimistic access read barrier detects the race via the warning
     bit and raises Restart (Algorithm 1);
   - after rolling back, a full re-run of the operation gives the correct
     answer.

   The discrete-event scheduler makes the interleaving exact and the test
   fully reproducible. *)

module Ptr = Oa_mem.Ptr
module I = Oa_core.Smr_intf
module CM = Oa_simrt.Cost_model

let cfg = { I.default_config with I.chunk_size = 4 }

(* Worker keys are distinctive so a stale read is recognizable. *)
let victim_key = 5
let worker_key_base = 100_000

type observation = {
  mutable stale_value_seen : int;
  mutable restarted : bool;
  mutable reread_after_restart : bool option;
  mutable victim_index_reused : bool;
}

let run_scenario () =
  let r = Oa_runtime.Sim_backend.make ~seed:1 ~max_threads:2 CM.amd_opteron in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module L = Oa_structures.Linked_list.Make (S) in
  let capacity = 64 in
  let t = L.create ~capacity cfg in
  let obs =
    {
      stale_value_seen = min_int;
      restarted = false;
      reread_after_restart = None;
      victim_index_reused = false;
    }
  in
  let reused_keys = Hashtbl.create 16 in
  R.par_run ~n:2 (fun tid ->
      let ctx = L.register t in
      if tid = 0 then begin
        (* seed the list with the victim, then hold a pointer to it *)
        assert (L.insert ctx victim_key);
        let victim =
          Ptr.unmark (S.read_ptr ctx.L.sctx ~hp:0 (L.head t))
        in
        assert (R.read (L.key_cell t victim) = victim_key);
        (* ... and go to sleep holding that pointer *)
        R.stall 50_000_000;
        (* the worker has recycled the victim's slot by now; a raw read
           does not fault but yields the new owner's key *)
        obs.stale_value_seen <- R.read (L.key_cell t victim);
        obs.victim_index_reused <- Hashtbl.mem reused_keys obs.stale_value_seen;
        (* the OA barrier turns the same access into a rollback *)
        (try
           ignore (S.read_ptr ctx.L.sctx ~hp:0 (L.key_cell t victim))
         with I.Restart -> obs.restarted <- true);
        (* after the rollback a fresh operation is correct *)
        obs.reread_after_restart <- Some (L.contains ctx victim_key)
      end
      else begin
        (* let the reader seed and grab its pointer first *)
        R.stall 1_000_000;
        assert (L.delete ctx victim_key);
        (* physically unlink (and retire) the victim via a traversal *)
        ignore (L.contains ctx victim_key);
        (* churn allocations through several phases so the victim's slot is
           recycled and rewritten with worker keys *)
        for i = 1 to 10 * capacity do
          let k = worker_key_base + i in
          Hashtbl.replace reused_keys k ();
          assert (L.insert ctx k);
          assert (L.delete ctx k);
          ignore (L.contains ctx k)
        done
      end);
  (obs, (module R : Oa_runtime.Runtime_intf.S))

let test_stale_value_is_observable () =
  let obs, _ = run_scenario () in
  (* the raw read saw something the victim never contained: either a
     worker key (slot reused for a new node) or 0 (slot zeroed by alloc) *)
  Alcotest.(check bool) "raw read returned stale data" true
    (obs.stale_value_seen <> victim_key)

let test_slot_actually_reused () =
  let obs, _ = run_scenario () in
  Alcotest.(check bool) "victim slot rewritten by the new owner" true
    (obs.victim_index_reused || obs.stale_value_seen = 0)

let test_barrier_catches_it () =
  let obs, _ = run_scenario () in
  Alcotest.(check bool) "read barrier raised Restart" true obs.restarted

let test_rollback_then_correct () =
  let obs, _ = run_scenario () in
  Alcotest.(check (option bool)) "victim is gone after rollback" (Some false)
    obs.reread_after_restart

(* The same scenario must hold across seeds: the mechanism is not an
   artifact of one interleaving. *)
let test_across_seeds () =
  for seed = 2 to 6 do
    let r =
      Oa_runtime.Sim_backend.make ~seed ~max_threads:2 CM.amd_opteron
    in
    let module R = (val r) in
    let module S = Oa_core.Oa.Make (R) in
    let module L = Oa_structures.Linked_list.Make (S) in
    let t = L.create ~capacity:64 cfg in
    let restarted = ref false in
    R.par_run ~n:2 (fun tid ->
        let ctx = L.register t in
        if tid = 0 then begin
          assert (L.insert ctx victim_key);
          let victim =
            Ptr.unmark
              (S.read_ptr ctx.L.sctx ~hp:0 (L.head t))
          in
          R.stall 50_000_000;
          try ignore (S.read_ptr ctx.L.sctx ~hp:0 (L.key_cell t victim))
          with I.Restart -> restarted := true
        end
        else begin
          R.stall 1_000_000;
          assert (L.delete ctx victim_key);
          ignore (L.contains ctx victim_key);
          for i = 1 to 400 do
            let k = worker_key_base + i in
            assert (L.insert ctx k);
            assert (L.delete ctx k);
            ignore (L.contains ctx k)
          done
        end);
    if not !restarted then
      Alcotest.failf "seed %d: stale read was not detected" seed
  done

(* --- The warning bit is load-bearing. ---

   Run the same interleaving twice: once with the OA read barrier and once
   with the check disabled.  The unchecked reader returns an answer that
   is not linearizable — it reports a key absent that was present for the
   whole run — while the checked reader rolls back and answers correctly.

   The reader's traversal is driven manually through the SMR primitives
   (the same reads the generated code performs) so it can be suspended at
   the exact read the race needs. *)

let run_load_bearing ~checked =
  let r = Oa_runtime.Sim_backend.make ~seed:5 ~max_threads:2 CM.amd_opteron in
  let module R = (val r) in
  let module S = Oa_core.Oa.Make (R) in
  let module L = Oa_structures.Linked_list.Make (S) in
  let t = L.create ~capacity:48 cfg in
  (* the sought key 9 is present for the entire experiment; [answer] is
     None when the unchecked traversal wandered into recycled garbage *)
  let answer = ref None in
  R.par_run ~n:2 (fun tid ->
      let ctx = L.register t in
      let sctx = ctx.L.sctx in
      if tid = 0 then begin
        assert (L.insert ctx 3);
        assert (L.insert ctx 5);
        assert (L.insert ctx 9);
        (* manual contains(9): the generated traversal with an optional
           barrier, parked at the second node while the worker races *)
        let check () = if checked then S.check sctx in
        let rec contains_9 () =
          let rec walk hops cur =
            if hops > 200 then None (* lost in recycled garbage *)
            else if Ptr.is_null cur then Some false
            else begin
              let u = Ptr.unmark cur in
              if hops = 2 then
                (* we hold a bare pointer to the second node (key 5); the
                   worker deletes and recycles it meanwhile *)
                R.stall 80_000_000;
              let ckey = S.read_data sctx (L.key_cell t u) in
              let next = S.read_data sctx (L.next_cell t u) in
              check ();
              if Ptr.is_marked next then walk (hops + 1) (Ptr.unmark next)
              else if ckey >= 9 then Some (ckey = 9)
              else walk (hops + 1) next
            end
          in
          try walk 1 (S.read_ptr sctx ~hp:0 (L.head t))
          with I.Restart -> contains_9 ()
        in
        answer := contains_9 ()
      end
      else begin
        R.stall 1_000_000;
        (* delete 5 and physically unlink it (proper retire) *)
        assert (L.delete ctx 5);
        ignore (L.contains ctx 5);
        (* churn so the victim's slot is recycled and rewritten with keys
           that sort after 9: the stale reader jumps past its target *)
        for i = 1 to 300 do
          let k = 100 + (i mod 7) in
          ignore (L.insert ctx k);
          ignore (L.delete ctx k)
        done;
        ignore (L.insert ctx 100)
      end);
  (!answer, L.to_list t)

let test_unchecked_reader_is_wrong () =
  let answer, final = run_load_bearing ~checked:false in
  Alcotest.(check bool) "9 stayed in the list" true (List.mem 9 final);
  (* the linearizable answer is true; without the barrier the reader
     either answers wrongly or gets lost in recycled memory *)
  Alcotest.(check bool) "without the warning check, contains(9) is wrong"
    true (answer <> Some true)

let test_checked_reader_is_right () =
  let answer, final = run_load_bearing ~checked:true in
  Alcotest.(check bool) "9 stayed in the list" true (List.mem 9 final);
  Alcotest.(check (option bool))
    "with the warning check, contains(9) rolls back and answers correctly"
    (Some true) answer

let () =
  Alcotest.run "stale_read"
    [
      ( "mechanism",
        [
          Alcotest.test_case "stale value observable" `Quick
            test_stale_value_is_observable;
          Alcotest.test_case "slot actually reused" `Quick
            test_slot_actually_reused;
          Alcotest.test_case "barrier catches it" `Quick test_barrier_catches_it;
          Alcotest.test_case "rollback then correct" `Quick
            test_rollback_then_correct;
          Alcotest.test_case "across seeds" `Quick test_across_seeds;
        ] );
      ( "load-bearing check",
        [
          Alcotest.test_case "unchecked reader is wrong" `Quick
            test_unchecked_reader_is_wrong;
          Alcotest.test_case "checked reader is right" `Quick
            test_checked_reader_is_right;
        ] );
    ]
