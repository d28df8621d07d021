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

let () =
  Alcotest.run "experiments"
    [
      ( "config",
        [
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
    ]
