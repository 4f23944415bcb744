(* Allocation gate for the operation path: on the real backend, a long run
   of mixed contains/insert/delete through the hash table and a standalone
   linked list allocates at most one minor-heap word per operation under
   every scheme.  The amortised word covers the schemes' pool-chunk
   refills and threshold work (an HP scan's table, an EBR advance); the
   per-operation path itself — the normalized driver, the search, the
   CAS descriptors and every barrier — must allocate nothing.  The same
   gate covers a network shard's per-operation entry point
   ([Service.make_shard]'s [exec]) and its batched one ([exec_batch],
   prefetch pass included — what a shard context runs), and
   a volatile service's prefill is held to one word per key.  The skip
   list and the queue run the same measurement and report their
   words/op without a gate. *)

module Rb = Oa_runtime.Real_backend
module I = Oa_core.Smr_intf
module R = (val Rb.make ())
module Sch = Oa_smr.Schemes.Make (R)
module SM = Oa_util.Splitmix

let ops = 100_000
let warmup = 20_000
let budget = 1.0

(* [body i] is the [i]-th operation; measured on a fresh domain after
   [warmup] operations, which fill the pools and grow every lazily sized
   buffer to its steady state. *)
let measure body =
  for i = 0 to warmup - 1 do
    body i
  done;
  let w0 = Gc.minor_words () in
  for i = warmup to warmup + ops - 1 do
    body i
  done;
  (Gc.minor_words () -. w0) /. float_of_int ops

let words_per_op body =
  let result = ref nan in
  R.par_run ~n:1 (fun _ -> result := measure body);
  !result

(* 50% contains, 25% insert, 25% delete over [range] keys. *)
let mixed ~range ~contains ~insert ~delete =
  let rng = SM.create 7 in
  fun _ ->
    let key = SM.below rng range and op = SM.below rng 4 in
    ignore
      (Sys.opaque_identity
         (if op < 2 then contains key
          else if op = 2 then insert key
          else delete key))

let cfg = I.default_config

(* NoRecl never frees: room for every insert of the run *)
let capacity = 1 lsl 15

let hash_words (module S : Sch.S_with_r) =
  let module H = Oa_structures.Hash_table.Make (S) in
  let t = H.create ~capacity ~expected_size:1024 cfg in
  let ctx = H.register t in
  words_per_op
    (mixed ~range:2048 ~contains:(H.contains t ctx) ~insert:(H.insert t ctx)
       ~delete:(H.delete t ctx))

let list_words (module S : Sch.S_with_r) =
  let module L = Oa_structures.Linked_list.Make (S) in
  let t = L.create ~capacity cfg in
  let ctx = L.register t in
  words_per_op
    (mixed ~range:64 ~contains:(L.contains ctx) ~insert:(L.insert ctx)
       ~delete:(L.delete ctx))

let skip_words (module S : Sch.S_with_r) =
  let module Sl = Oa_structures.Skip_list.Make (S) in
  let cfg =
    { cfg with I.hp_slots = Sl.hp_slots_needed; max_cas = Sl.max_cas_needed }
  in
  let t = Sl.create ~capacity cfg in
  let ctx = Sl.register t in
  words_per_op
    (mixed ~range:512 ~contains:(Sl.contains ctx) ~insert:(Sl.insert ctx)
       ~delete:(Sl.delete ctx))

let queue_words (module S : Sch.S_with_r) =
  let module Q = Oa_structures.Ms_queue.Make (S) in
  let t = Q.create ~capacity:(1 lsl 17) { cfg with I.max_cas = 2 } in
  let ctx = Q.register t in
  let rng = SM.create 11 in
  words_per_op (fun i ->
      if SM.below rng 2 = 0 then Q.enqueue ctx i
      else ignore (Sys.opaque_identity (Q.dequeue ctx)))

(* A shard brings its own backend instance; its worker is the calling
   domain, as for the service's own prefill and recovery.  [~batch:1]
   runs each op through [exec]; a larger [batch] stages one op per
   measured step and runs every [batch]th step's batch through
   [exec_batch] (the group-prefetch pass, then the scheme's batched
   path) — what a server share runs. *)
let shard_words ~batch id =
  let module Sv = Oa_net.Service in
  let cfg =
    { Sv.default_config with scheme = id; shards = 1; delta = 40_000 }
  in
  let shard, _ = Sv.make_shard ~obs:Oa_obs.Sink.disabled ~index:0 ~cfg in
  let w = shard.Sv.register () in
  let kinds = Array.make batch Sv.Get
  and keys = Array.make batch 0
  and results = Array.make batch false in
  let kind_of = function 0 | 1 -> Sv.Get | 2 -> Sv.Insert | _ -> Sv.Delete in
  let rng = SM.create 5 in
  measure (fun i ->
      let j = i mod batch in
      keys.(j) <- 1 + SM.below rng cfg.Sv.key_range;
      kinds.(j) <- kind_of (SM.below rng 4);
      if batch = 1 then
        ignore (Sys.opaque_identity (w.Sv.exec kinds.(0) keys.(0)))
      else if j = batch - 1 then w.Sv.exec_batch ~n:batch kinds keys results)

(* A volatile service's prefill keeps no per-key state beside the table:
   [Service.create] with a 100 000-key prefill allocates at most one heap
   word per prefilled key — the table's amortised pool refills and the
   shards' fixed set-up — not a key list (three words a key, promoted to
   the major heap), which only a durable prefill needs for its log
   append.  Counts minor and direct major allocations alike, on the main
   domain that runs the prefill. *)
let test_volatile_prefill () =
  let module Sv = Oa_net.Service in
  let prefill = 100_000 in
  let cfg =
    { Sv.default_config with shards = 2; prefill; key_range = 4 * prefill }
  in
  let allocated () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = allocated () in
  let t = Sv.create ~obs:(Oa_obs.Sink.create ()) cfg in
  let w = (allocated () -. w0) /. float_of_int prefill in
  Printf.printf "volatile prefill: %.3f words/key\n" w;
  Alcotest.(check bool) "prefill landed" true
    (Sv.mem_gauge t "mem_committed_bytes" > 0);
  if w > budget then
    Alcotest.failf "volatile prefill allocates %.2f words/key (budget %.0f)" w
      budget

let gate what measure (id, s) () =
  let w = measure (id, s) in
  Printf.printf "%s %s: %.3f minor words/op\n" what
    (Oa_smr.Schemes.id_name id) w;
  if w > budget then
    Alcotest.failf "%s under %s allocates %.2f minor words/op (budget %.0f)"
      what (Oa_smr.Schemes.id_name id) w budget

(* Not gated: the queue's [dequeue] returns a fresh [Some]. *)
let report () =
  List.iter
    (fun (id, s) ->
      Printf.printf "skip list %s: %.3f minor words/op (not gated)\n"
        (Oa_smr.Schemes.id_name id) (skip_words s);
      Printf.printf "ms queue %s: %.3f minor words/op (not gated)\n"
        (Oa_smr.Schemes.id_name id) (queue_words s))
    Sch.all

let cases what measure =
  List.map
    (fun ((id, _) as scheme) ->
      Alcotest.test_case (Oa_smr.Schemes.id_name id) `Quick
        (gate what measure scheme))
    Sch.all

let () =
  Alcotest.run "alloc"
    [
      ("hash table", cases "hash table" (fun (_, s) -> hash_words s));
      ("linked list", cases "linked list" (fun (_, s) -> list_words s));
      ( "service exec",
        cases "shard exec" (fun (id, _) -> shard_words ~batch:1 id) );
      ( "service exec_batch",
        cases "shard exec_batch" (fun (id, _) -> shard_words ~batch:64 id) );
      ( "service prefill",
        [ Alcotest.test_case "volatile keeps no key list" `Quick
            test_volatile_prefill ] );
      ("report", [ Alcotest.test_case "skip list and queue" `Quick report ]);
    ]
