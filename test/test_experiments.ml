module Common = Tb_experiments.Common
module Mcf = Tb_flow.Mcf

(* Experiment-layer tests: configuration plumbing and the invariants the
   figure generators rely on, at tiny sizes (the full figures run from
   bench/main.exe). *)

let tiny =
  {
    Common.seed = 7;
    iterations = 2;
    quick = true;
    eps = 0.4;
    tol = 0.08;
  }

let test_config_rng_deterministic () =
  let a = Common.rng tiny 5 and b = Common.rng tiny 5 in
  Alcotest.(check int) "same stream" (Tb_prelude.Rng.int a 1000)
    (Tb_prelude.Rng.int b 1000)

let test_trim_sweep () =
  let l = [ 1; 2; 3; 4; 5; 6 ] in
  let trimmed = Common.trim_sweep tiny l in
  Alcotest.(check (list int)) "keeps smallest and mid" [ 1; 4 ] trimmed;
  Alcotest.(check (list int)) "full mode untouched" l
    (Common.trim_sweep { tiny with Common.quick = false } l);
  Alcotest.(check (list int)) "singleton stays" [ 9 ]
    (Common.trim_sweep tiny [ 9 ])

let test_throughput_helper () =
  let topo = Tb_topo.Hypercube.make ~dim:3 () in
  let tm = Tb_tm.Synthetic.all_to_all topo in
  let v = Common.throughput tiny topo tm in
  Alcotest.(check bool) "positive" true (v > 0.5 && v < 2.0)

(* The shared service must be usable from two domains at once, as the
   figures' [parallel_map] calls it: the first two calls race. *)
let test_throughput_two_domains () =
  let topo = Tb_topo.Hypercube.make ~dim:3 () in
  let tm = Tb_tm.Synthetic.all_to_all topo in
  let solve () = Domain.spawn (fun () -> Common.throughput tiny topo tm) in
  let a = solve () and b = solve () in
  let va = Domain.join a and vb = Domain.join b in
  Alcotest.(check bool) "both domains served, same value" true
    (va > 0.5 && va = vb)

let test_relative_helper () =
  let topo = Tb_topo.Hypercube.make ~dim:3 () in
  let r =
    Common.relative_gen tiny ~salt:1 topo
      (fun _ t -> Tb_tm.Synthetic.longest_matching t)
  in
  Alcotest.(check bool) "ratio positive" true
    (r.Topobench.Relative.relative.Tb_prelude.Stats.mean > 0.0)

(* The TM ladder ordering that Fig. 2 and Fig. 4 print: A2A is the
   easiest, LM the hardest, and the lower bound sits below LM (allowing
   solver slack). *)
let test_tm_ladder_ordering () =
  let topo = Tb_topo.Hypercube.make ~hosts_per_switch:2 ~dim:4 () in
  let rng = Common.rng tiny 2 in
  let tp tm = Common.throughput tiny topo tm in
  let a2a = tp (Tb_tm.Synthetic.all_to_all topo) in
  let rm = tp (Tb_tm.Synthetic.random_matching ~k:1 rng topo) in
  let lm = tp (Tb_tm.Synthetic.longest_matching topo) in
  Alcotest.(check bool) "A2A >= RM" true (a2a *. 1.1 >= rm);
  Alcotest.(check bool) "RM >= LM" true (rm *. 1.1 >= lm);
  Alcotest.(check bool) "LM >= bound" true (lm *. 1.1 >= a2a /. 2.0)

(* Cut-study invariant: the best sparse cut never undercuts the solver's
   certified throughput range. *)
let test_cut_study_row_invariant () =
  let topo = Tb_topo.Hypercube.make ~dim:3 () in
  let row = Tb_experiments.Cut_study.compute_row tiny topo in
  Alcotest.(check bool) "cut >= throughput lower" true
    (row.Tb_experiments.Cut_study.report.Tb_cuts.Estimator.sparsity
    >= row.Tb_experiments.Cut_study.throughput.Mcf.lower -. 1e-6)

(* The theorem-1 constructions behind the Fig. 1 demo. *)
let test_subdivided_expander_size () =
  let rng = Common.rng tiny 3 in
  let g, base = Tb_experiments.Theory.subdivided_expander rng ~n:28 ~d:3 ~p:2 in
  Alcotest.(check int) "base" 7 base;
  (* base + d*base edges subdivided once = base * (1 + d). *)
  Alcotest.(check int) "total nodes" 28 (Tb_graph.Graph.num_nodes g);
  Alcotest.(check bool) "connected" true (Tb_graph.Traversal.is_connected g)

let test_clustered_random_structure () =
  let rng = Common.rng tiny 4 in
  let g = Tb_experiments.Theory.clustered_random rng ~n:24 ~alpha:4 ~beta:1 in
  Alcotest.(check int) "nodes" 24 (Tb_graph.Graph.num_nodes g);
  Alcotest.(check bool) "connected" true (Tb_graph.Traversal.is_connected g);
  (* The cross cut is thin: capacity between halves ~ beta * n/2. *)
  let cut = Tb_cuts.Cut.of_list ~n:24 (List.init 12 Fun.id) in
  Alcotest.(check bool) "thin waist" true
    (Tb_cuts.Cut.capacity g cut <= 14.0)

(* ---- The failures sweep (Failure_sweep.sweep). ---- *)

module Failure_sweep = Tb_experiments.Failure_sweep
module Json = Tb_obs.Json

let counter name =
  match Tb_obs.Metrics.find_counter name with
  | Some c -> Tb_obs.Metrics.count c
  | None -> 0

let sweep_on_cube ?checkpoint ?fault ~rates ~trials () =
  let topo = Tb_topo.Hypercube.make ~dim:3 () in
  Failure_sweep.sweep ?checkpoint ?fault tiny topo
    (Tb_tm.Synthetic.all_to_all topo) ~rates ~trials

(* Bad input is rejected before any cell solves. *)
let check_rejected name ~rates ~trials =
  let solves = counter "harness.solves" in
  (match sweep_on_cube ~rates ~trials () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (name ^ ": sweep's own message") true
      (String.starts_with ~prefix:"failure sweep:" msg));
  Alcotest.(check int) (name ^ ": no solve") solves (counter "harness.solves")

let test_sweep_rejects_key_collision () =
  (* 0.1 and 0.1004 both key as rate=0.100: one would replay the
     other's cells from a checkpoint. *)
  check_rejected "0.1,0.1004" ~rates:[ 0.1; 0.1004 ] ~trials:2;
  check_rejected "0,0.0004" ~rates:[ 0.0; 0.0004 ] ~trials:1

let test_sweep_rejects_bad_trials_and_rates () =
  check_rejected "trials 0" ~rates:[ 0.0; 0.1 ] ~trials:0;
  check_rejected "rate 1" ~rates:[ 0.0; 1.0 ] ~trials:1;
  check_rejected "negative rate" ~rates:[ -0.1 ] ~trials:1;
  check_rejected "nan rate" ~rates:[ Float.nan ] ~trials:1

(* 0.1011 and 0.1019 key as rate=0.101 and rate=0.102: distinct cells
   must not replay one failure sample. *)
let test_sweep_distinct_keys_distinct_samples () =
  let topo =
    Tb_topo.Jellyfish.make ~rng:(Common.rng tiny 9100) ~n:16 ~degree:6 ()
  in
  match
    Failure_sweep.sweep tiny topo
      (Tb_tm.Synthetic.all_to_all topo)
      ~rates:[ 0.1011; 0.1019 ] ~trials:3
  with
  | [ a; b ] ->
    Alcotest.(check bool) "different samples" false
      (List.map snd a.Failure_sweep.cells = List.map snd b.Failure_sweep.cells)
  | _ -> Alcotest.fail "one row per rate"

(* Every attempt times out, so every connected cell degrades to the cut
   rung (which cannot fail), and each failed attempt on the way is one
   injected fault recorded in the cell. *)
let test_sweep_fault_injection () =
  let faults = counter "harness.faults_injected" in
  let rows =
    sweep_on_cube
      ~fault:(fun seed -> Tb_harness.Fault.make ~timeout_p:1.0 ~seed ())
      ~rates:[ 0.0; 0.2 ] ~trials:2 ()
  in
  let attempts =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun (key, j) ->
            match Option.bind (Json.member "rung" j) Json.to_str with
            | Some "cuts" -> (
              match Json.member "attempts" j with
              | Some (Json.List (_ :: _ as l)) -> l
              | _ -> Alcotest.failf "%s: no failed attempt recorded" key)
            | Some "disconnected" -> []
            | _ -> Alcotest.failf "%s: not on the cuts rung" key)
          r.Failure_sweep.cells)
      rows
  in
  Alcotest.(check (list string)) "rungs" [ "cc"; "cc" ]
    (List.map (fun r -> r.Failure_sweep.rungs) rows);
  List.iter
    (fun a ->
      Alcotest.(check bool) "attempt above the cut rung" true
        (Option.bind (Json.member "rung" a) Json.to_str <> Some "cuts"))
    attempts;
  Alcotest.(check int) "one recorded attempt per injected fault"
    (counter "harness.faults_injected" - faults)
    (List.length attempts)

(* A finished sweep re-run on its checkpoint replays every cell: no
   solve runs and the rows are identical. *)
let test_sweep_checkpoint_replay () =
  let path = Filename.temp_file "tb_failure_sweep" ".json" in
  Sys.remove path;
  let run () =
    sweep_on_cube
      ~checkpoint:(Tb_harness.Checkpoint.load ~path)
      ~rates:[ 0.0; 0.2 ] ~trials:2 ()
  in
  let solves = counter "harness.solves" in
  let first = run () in
  Alcotest.(check int) "first run solves every cell" 4
    (counter "harness.solves" - solves);
  let solves = counter "harness.solves" in
  let again = run () in
  Sys.remove path;
  Alcotest.(check int) "replay solves nothing" solves (counter "harness.solves");
  Alcotest.(check bool) "identical rows" true (first = again)

let () =
  Alcotest.run "experiments"
    [
      ( "config",
        [
          Alcotest.test_case "throughput from two domains" `Quick
            test_throughput_two_domains;
          Alcotest.test_case "rng deterministic" `Quick test_config_rng_deterministic;
          Alcotest.test_case "trim sweep" `Quick test_trim_sweep;
          Alcotest.test_case "throughput helper" `Quick test_throughput_helper;
          Alcotest.test_case "relative helper" `Quick test_relative_helper;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "tm ladder ordering" `Slow test_tm_ladder_ordering;
          Alcotest.test_case "cut study row" `Quick test_cut_study_row_invariant;
          Alcotest.test_case "subdivided expander" `Quick
            test_subdivided_expander_size;
          Alcotest.test_case "clustered random" `Quick
            test_clustered_random_structure;
        ] );
      ( "failure sweep",
        [
          Alcotest.test_case "rejects key collision" `Quick
            test_sweep_rejects_key_collision;
          Alcotest.test_case "rejects bad trials and rates" `Quick
            test_sweep_rejects_bad_trials_and_rates;
          Alcotest.test_case "distinct keys, distinct samples" `Quick
            test_sweep_distinct_keys_distinct_samples;
          Alcotest.test_case "fault injection lands on cuts" `Quick
            test_sweep_fault_injection;
          Alcotest.test_case "checkpoint replay solves nothing" `Quick
            test_sweep_checkpoint_replay;
        ] );
    ]
