module Graph = Tb_graph.Graph
module Topology = Tb_topo.Topology
module Synthetic = Tb_tm.Synthetic
module Estimator = Tb_cuts.Estimator
module Bisection = Tb_cuts.Bisection
module Mcf = Tb_flow.Mcf

(* Section III-B's small-network counterexample: the 5-ary 3-stage
   flattened butterfly (25 switches, 125 servers), where even the best
   cut found strictly exceeds the worst-case throughput — the paper
   reports throughput 0.565 vs sparsest cut 0.6. We solve the LM
   throughput to a tight bracket and run the full estimator suite with a
   deep brute-force budget. *)

let run cfg =
  Common.section
    "Sec III-B: 5-ary 3-stage flattened butterfly (cut > throughput)";
  let topo = Tb_topo.Flat_butterfly.make ~k:5 ~stages:3 () in
  let tm = Synthetic.longest_matching topo in
  let est =
    Topobench.Throughput.of_tm
      ~solver:(Mcf.Approx { eps = 0.05; tol = 0.01 })
      topo tm
  in
  let budget = if cfg.Common.quick then 50_000 else 2_000_000 in
  let report =
    Estimator.run ~max_brute_cuts:budget topo.Topology.graph (Tb_tm.Tm.flows tm)
  in
  let bisect =
    Bisection.as_throughput_bound ~rng:(Common.rng cfg 25) topo.Topology.graph
      (Tb_tm.Tm.flows tm)
  in
  Printf.printf "Throughput (LM): %.4f  [%.4f, %.4f]\n" est.Mcf.value
    est.Mcf.lower est.Mcf.upper;
  Printf.printf "Best sparse cut: %.4f   Bisection bound: %.4f\n"
    report.Estimator.sparsity bisect;
  Printf.printf "Cut exceeds throughput: %b (paper: 0.6 vs 0.565)\n"
    (report.Estimator.sparsity > est.Mcf.upper +. 1e-6)
