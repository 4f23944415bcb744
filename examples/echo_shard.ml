(* Embedding the sharded service without sockets.

   Oa_net.Service is a library first: create it and issue operations
   with Service.call — the same stage / await path the TCP server uses,
   minus the wire protocol: each call runs on the calling domain,
   through a borrowed shard execution context.  This example runs a
   single-shard service (one hash table + SMR scheme instance with one
   execution context), checks a few operations against
   their expected results, then stops the service and prints the drain
   report with its conservation verdict.

   Run with:  dune exec examples/echo_shard.exe *)

module Sv = Oa_net.Service

let () =
  (* One shard, one execution context.  Prefill is empty so every
     result below is predictable. *)
  let cfg =
    {
      Sv.default_config with
      Sv.scheme = Oa_smr.Schemes.Optimistic_access;
      shards = 1;
      workers_per_shard = 1;
      prefill = 0;
      key_range = 1_000;
      delta = 4_000;
    }
  in
  let service = Sv.create cfg in

  let show kind name key =
    match Sv.call service kind key with
    | Sv.Done b -> Printf.printf "  %s %d -> %b\n" name key b
    | Sv.Rejected -> Printf.printf "  %s %d -> BUSY\n" name key
    | Sv.Failed -> Printf.printf "  %s %d -> FAILED\n" name key
  in
  print_endline "single-shard service, empty prefill:";
  show Sv.Get "get" 7;        (* false: not there yet *)
  show Sv.Insert "insert" 7;  (* true: newly inserted *)
  show Sv.Insert "insert" 7;  (* false: already present *)
  show Sv.Get "get" 7;        (* true *)
  show Sv.Delete "delete" 7;  (* true: removed *)
  show Sv.Delete "delete" 7;  (* false: already gone *)

  (* A little churn so the drain report has something to conserve. *)
  let rng = Oa_util.Splitmix.create 11 in
  for _ = 1 to 20_000 do
    let k = 1 + Oa_util.Splitmix.below rng 1_000 in
    match Oa_util.Splitmix.below rng 3 with
    | 0 -> ignore (Sv.call service Sv.Insert k)
    | 1 -> ignore (Sv.call service Sv.Delete k)
    | _ -> ignore (Sv.call service Sv.Get k)
  done;

  (* Stop: run the context's final reclamation pass and close it.  The
     report must conserve nodes. *)
  Sv.stop service;
  let r = Sv.drain_report service in
  Format.printf "drain: %a@." Sv.pp_report r;
  if not r.Sv.conservation_ok then exit 1
