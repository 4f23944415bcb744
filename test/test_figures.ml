(* Smoke tests of the figure runners at a tiny scale: every figure path
   must execute, print a plausible table, and (for ratio figures) keep the
   schemes in the paper's order on at least the headline panel.  The
   simulator is deterministic, so each run's measured points are also
   pinned at full precision against golden/figures.txt: a change that
   should not move the reproduction (a refactor, a deletion) must leave
   every number bit-identical. *)

module F = Oa_harness.Figures
module E = Oa_harness.Experiment
module Schemes = Oa_smr.Schemes

(* Figures treats empty env values as unset, so resetting to "" restores
   the defaults (Unix.putenv cannot remove a variable). *)
let with_tiny_env f =
  let set n v = Unix.putenv n v in
  set "OA_BENCH_SCALE" "0.02";
  set "OA_BENCH_REPEATS" "1";
  set "OA_BENCH_THREADS" "2,4";
  Fun.protect f ~finally:(fun () ->
      set "OA_BENCH_SCALE" "";
      set "OA_BENCH_REPEATS" "";
      set "OA_BENCH_THREADS" "")

(* Run each [(section, f)] at the tiny scale, recording every measured
   point as one line tagged [section]; then compare each section with the
   [section] lines of the golden file.  On a mismatch the observed lines
   are written to [section].actual (under _build/default/test) for
   inspection or, when a change is meant to move the figures, for
   regenerating the golden. *)
let golden runs =
  let record (section, f) =
    let lines = ref [] in
    (F.on_measure :=
       fun spec p ->
         lines :=
           Printf.sprintf "%s %s %s t=%d chunk=%d delta=%d ops=%d %.17g"
             section
             (E.structure_name spec.E.structure)
             (Schemes.id_name spec.E.scheme)
             spec.E.threads spec.E.chunk_size spec.E.delta spec.E.total_ops
             p.F.mean_throughput
           :: !lines);
    Fun.protect
      (fun () -> with_tiny_env f)
      ~finally:(fun () -> F.on_measure := fun _ _ -> ());
    (section, List.rev !lines)
  in
  let observed = List.map record runs in
  let golden_lines =
    In_channel.with_open_text "golden/figures.txt" In_channel.input_all
    |> String.split_on_char '\n'
  in
  let expected section =
    List.filter (String.starts_with ~prefix:(section ^ " ")) golden_lines
  in
  List.iter
    (fun (section, actual) ->
      if actual <> expected section then
        Out_channel.with_open_text (section ^ ".actual") (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) actual))
    observed;
  List.iter
    (fun (section, actual) ->
      Alcotest.(check (list string))
        (section ^ " matches golden") (expected section) actual)
    observed

let test_fig1_data_shape () =
  golden
    [
      ( "fig1",
        fun () ->
          let data = F.run_fig1_data () in
          Alcotest.(check int) "four panels" 4 (List.length data);
          List.iter
            (fun (name, rows) ->
              Alcotest.(check int)
                (name ^ ": two thread counts")
                2 (List.length rows);
              List.iter
                (fun (_, base, per) ->
                  Alcotest.(check bool) "baseline positive" true
                    (base.F.mean_throughput > 0.0);
                  List.iter
                    (fun (_, p) ->
                      Alcotest.(check bool) "scheme positive" true
                        (p.F.mean_throughput > 0.0))
                    per)
                rows)
            data;
          (* headline ordering on LinkedList5K: OA beats HP at every point *)
          let _, rows = List.find (fun (n, _) -> n = "LinkedList5K") data in
          List.iter
            (fun (_, _, per) ->
              let thr s =
                (snd (List.find (fun (s', _) -> s' = s) per)).F.mean_throughput
              in
              Alcotest.(check bool) "OA > HP" true
                (thr Schemes.Optimistic_access > thr Schemes.Hazard_pointers))
            rows;
          (* the print paths must not raise *)
          ignore (F.fig1 ~data ());
          F.fig4 ~data () );
    ]

let test_fig2_fig3_run () =
  golden [ ("fig2", F.fig2); ("fig3", F.fig3) ]

let test_ablations_run () = golden [ ("ablations", F.ablations) ]

let () =
  Alcotest.run "figures"
    [
      ( "smoke",
        [
          Alcotest.test_case "figure 1/4 data and print" `Slow
            test_fig1_data_shape;
          Alcotest.test_case "figures 2 and 3" `Slow test_fig2_fig3_run;
          Alcotest.test_case "ablations and extension" `Slow
            test_ablations_run;
        ] );
    ]
