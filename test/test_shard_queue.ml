(* The bounded queue between connection handlers and shard workers:
   push_many's longest-prefix rule at capacity, FIFO order across the
   ring's wrap, close-then-drain, and the wakeup a consumer passes on when
   it leaves items behind. *)

module Q = Oa_net.Shard_queue

let pop_all q ~max =
  let dst = Array.make max 0 in
  let k, _ = Q.pop_batch_into q dst ~max in
  Array.to_list (Array.sub dst 0 k)

let ints = Alcotest.(list int)

let test_prefix_at_capacity () =
  let q = Q.create ~capacity:4 ~dummy:0 in
  let src = [| 10; 11; 12; 13; 14; 15; 16 |] in
  Alcotest.(check int) "longest prefix that fits" 4 (Q.push_many q src ~pos:1 ~len:6);
  Alcotest.(check int) "full queue takes nothing" 0 (Q.push_many q src ~pos:0 ~len:1);
  Alcotest.(check int) "empty share" 0 (Q.push_many q src ~pos:7 ~len:0);
  Alcotest.check ints "accepted = the share's head" [ 11; 12; 13; 14 ]
    (pop_all q ~max:8);
  Alcotest.(check int) "room again" 2 (Q.push_many q src ~pos:5 ~len:2);
  Alcotest.(check int) "depth" 2 (Q.length q);
  Alcotest.check_raises "range checked" (Invalid_argument "Shard_queue.push_many")
    (fun () -> ignore (Q.push_many q src ~pos:6 ~len:2))

let test_fifo_across_wrap () =
  let q = Q.create ~capacity:5 ~dummy:0 in
  let next = ref 0 and popped = ref [] in
  let push n =
    let src = Array.init n (fun i -> !next + i) in
    let k = Q.push_many q src ~pos:0 ~len:n in
    next := !next + k
  in
  let pop max = popped := List.rev_append (pop_all q ~max) !popped in
  (* the head walks round the ring several times *)
  for round = 1 to 12 do
    push (1 + (round mod 4));
    pop (1 + (round mod 3))
  done;
  while Q.length q > 0 do
    pop 5
  done;
  Alcotest.check ints "every accepted item, once, in push order"
    (List.init !next Fun.id) (List.rev !popped)

let test_close_then_drain () =
  let q = Q.create ~capacity:4 ~dummy:0 in
  ignore (Q.push_many q [| 1; 2; 3 |] ~pos:0 ~len:3);
  Q.close q;
  Alcotest.(check int) "closed queue rejects" 0 (Q.push_many q [| 4 |] ~pos:0 ~len:1);
  Alcotest.check ints "queued items drain after close" [ 1; 2 ] (pop_all q ~max:2);
  Alcotest.check ints "the rest" [ 3 ] (pop_all q ~max:2);
  let dst = [| 0 |] in
  Alcotest.(check int) "then (0, _), without blocking" 0
    (fst (Q.pop_batch_into q dst ~max:1))

(* Two consumers wait on an empty queue; one push_many of two items sends
   one signal.  The consumer it wakes takes one item (max 1) and must
   pass the wakeup on, or the other sleeps beside a non-empty queue.  The
   queue is closed after a deadline so a lost wakeup fails the test
   instead of hanging it. *)
let test_wakeup_passed_on () =
  let q = Q.create ~capacity:4 ~dummy:0 in
  let got = Atomic.make 0 in
  let consumer () =
    let dst = [| 0 |] in
    let k, _ = Q.pop_batch_into q dst ~max:1 in
    Atomic.fetch_and_add got k |> ignore;
    k
  in
  let ds = List.init 2 (fun _ -> Domain.spawn consumer) in
  (* let both consumers reach the condition wait *)
  Unix.sleepf 0.1;
  Alcotest.(check int) "one push, both items" 2 (Q.push_many q [| 7; 8 |] ~pos:0 ~len:2);
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get got < 2 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Q.close q;
  Alcotest.(check (list int)) "each consumer took one item" [ 1; 1 ]
    (List.map Domain.join ds)

let () =
  Alcotest.run "shard_queue"
    [
      ( "push_many",
        [
          Alcotest.test_case "prefix at capacity" `Quick test_prefix_at_capacity;
          Alcotest.test_case "FIFO across the wrap" `Quick test_fifo_across_wrap;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "close then drain" `Quick test_close_then_drain;
          Alcotest.test_case "wakeup passed on" `Quick test_wakeup_passed_on;
        ] );
    ]
