(* Lock-freedom of reclamation: a stuck thread does not stop OA.

   The paper's core advantage over epoch-based reclamation: EBR blocks all
   reclamation while any thread sits inside an operation, whereas the
   optimistic access scheme keeps reclaiming — a stuck thread's warning
   bit is simply left set, and it rolls back when it resumes.

   We run on the simulated backend so a thread can be descheduled for an
   exact, very long time in the middle of an operation: thread 0 begins an
   operation and stalls; three workers churn inserts and deletes through a
   small arena that must be recycled many times over.  Under OA the workers
   sail through; under EBR allocation starves because the epoch cannot
   advance past the stuck reader.

   Run with:  dune exec examples/stuck_thread.exe *)

module I = Oa_core.Smr_intf
module CM = Oa_simrt.Cost_model

let workers = 3
let churn = 20_000
let capacity = 2_600
let seed = 5

let run id =
  let backend =
    Oa_runtime.Sim_backend.make ~seed ~quantum:64 ~max_threads:8
      CM.amd_opteron
  in
  let module R = (val backend) in
  let module Sch = Oa_smr.Schemes.Make (R) in
  let module S = (val Sch.pack id) in
  let module L = Oa_structures.Linked_list.Make (S) in
  let cfg =
    {
      I.default_config with
      I.chunk_size = 16;
      retire_threshold = 64;
      epoch_threshold = 16;
    }
  in
  let t = L.create ~capacity cfg in
  let outcome =
    try
      R.par_run ~n:(workers + 1) (fun tid ->
          let ctx = L.register t in
          if tid = 0 then begin
            (* Enter an operation, then go to sleep in the middle of it for
               half a simulated second — epochs cannot pass this thread. *)
            S.op_begin ctx.L.sctx;
            (try ignore (S.read_ptr ctx.L.sctx ~hp:0 (L.head t))
             with I.Restart -> ());
            R.stall 1_000_000_000;
            S.op_end ctx.L.sctx
          end
          else
            for i = 1 to churn do
              let k = (tid * 1_000_000) + (i mod 64) in
              ignore (L.insert ctx k);
              ignore (L.delete ctx k)
            done);
      let st = S.stats (L.smr t) in
      Printf.sprintf
        "completed %d churn ops; %d allocations through a %d-node arena \
         (%d recycled, %d phases)"
        (workers * churn * 2) st.I.allocs capacity st.I.recycled st.I.phases
    with
    | Oa_simrt.Sched.Thread_failure (_, I.Arena_exhausted) ->
        "STARVED: allocation failed; reclamation was blocked by the stuck \
         thread"
    | Oa_simrt.Sched.Cycle_limit_exceeded ->
        (* The simulator's cycle budget ran out before the workers finished:
           a livelock, not starvation.  The run is deterministic, so the
           seed is a complete reproduction recipe. *)
        Printf.sprintf
          "LIVELOCK: simulator cycle limit exceeded; replay with seed %d \
           (deterministic)"
          seed
  in
  Printf.printf "%-8s %s\n%!" (Oa_smr.Schemes.id_name id) outcome

let () =
  print_endline
    "One thread stalls inside an operation while others churn allocations:";
  run Oa_smr.Schemes.Optimistic_access;
  run Oa_smr.Schemes.Epoch_based
