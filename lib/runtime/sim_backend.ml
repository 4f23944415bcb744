(** Simulated-multicore backend: binds {!Oa_simrt.Sched} and
    {!Oa_simrt.Smem} behind the {!Runtime_intf.S} interface. *)

open Oa_simrt

let of_sched ?(max_threads = 128) ?trace sched0 : (module Runtime_intf.S) =
  (module struct
    let name = "sim"
    let sched = sched0
    let cost_model = Sched.cost_model sched

    let () =
      match trace with
      | None -> ()
      | Some tr ->
          Sched.set_switch_hook sched (fun ~tid ~clock ->
              Trace.record tr ~time:clock ~tid "switch")

    let mem = Smem.create sched ~threads:max_threads

    type cell = Smem.cell
    type 'a rcell = 'a Smem.rcell

    let cell v = Smem.cell mem v

    (* A block is the cell matrix itself, indexed [field].(node): each
       node's fields on one modelled line, line ids allocated in node
       order at carve time. *)
    type block = cell array array

    let node_block ~nodes ~fields = Smem.node_matrix mem ~nodes ~fields
    let node_cell (b : block) j f = b.(f).(j)
    let read c = Smem.read mem c
    let read_own c = Smem.read_own mem c
    let write c v = Smem.write mem c v
    let cas c e v = Smem.cas mem c e v
    let faa c d = Smem.faa mem c d
    let fence () = Smem.fence mem

    let zero_node (b : block) j =
      for f = 0 to Array.length b - 1 do
        Smem.write mem b.(f).(j) 0
      done

    (* No pages to release in the model; zeroing preserves the contents
       contract (and charges the writes, so elastic shrink has a cost). *)
    let decommit_block (b : block) =
      Array.iter (Array.iter (fun c -> Smem.write mem c 0)) b

    (* Deterministic schedules must not depend on wall-clock backoff. *)
    let cpu_relax () = ()
    let rcell v = Smem.rcell mem v
    let rread r = Smem.rread mem r
    let rwrite r v = Smem.rwrite mem r v
    let rcas r e v = Smem.rcas mem r e v

    let work c =
      if Sched.tid sched >= 0 then begin
        Sched.charge sched c;
        Sched.maybe_yield sched
      end

    let op_work () = work cost_model.Oa_simrt.Cost_model.op_overhead
    let last_elapsed = ref 0.0

    let par_run ~n f =
      if n > max_threads then invalid_arg "Sim_backend.par_run: too many threads";
      Sched.run sched ~n f;
      last_elapsed := Sched.elapsed_seconds sched

    let elapsed_seconds () = !last_elapsed
    let now_cycles () = if Sched.tid sched >= 0 then Sched.clock sched else 0
    let tid () = Sched.tid sched
    let n_threads () = Sched.n_threads sched
    let max_threads = max_threads
    let stall c = if Sched.tid sched >= 0 then Sched.stall sched c
  end)

let make ?(seed = 0) ?(quantum = 0) ?max_threads ?trace cost_model =
  of_sched ?max_threads ?trace (Sched.create ~seed ~quantum cost_model)
