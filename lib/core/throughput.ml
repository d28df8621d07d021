module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Solve = Tb_harness.Solve

(* Throughput of a topology under a traffic matrix: the maximum [t] such
   that the TM scaled by [t] admits a feasible multicommodity flow
   (Section II-A). Absolute values assume the TM is hose-normalized
   (each server sends and receives at most one unit). *)

(* Throughput of a bare graph under node-level flows (used when the same
   TM is re-evaluated on a same-equipment random graph). [Auto] keeps
   Fleischer's own default gap, tighter than the harness default. *)
let of_graph ?(solver = Mcf.Auto) g tm =
  let policy =
    match solver with
    | Mcf.Auto -> Solve.policy_of ~tol:Tb_flow.Fleischer.default_tol None
    | Mcf.Exact_lp -> Solve.policy_of (Some Solve.Exact_lp)
    | Mcf.Approx { eps; tol } -> Solve.policy_of ~eps ~tol (Some Solve.Fptas)
  in
  (Solve.solve ~policy g (Tm.commodities tm)).Solve.estimate

let of_tm ?solver (topo : Topology.t) tm = of_graph ?solver topo.Topology.graph tm
