module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Restricted = Tb_flow.Restricted

(* Routing-restricted throughput.

   The paper's headline numbers assume optimal (multipath) routing; its
   Section V argues that single-path studies measure the routing scheme
   rather than the topology. This module quantifies that: evaluate any
   TM with flows pinned to their k diverse shortest paths (k = 1 is
   single-path routing; growing k approaches the optimum, mimicking
   ECMP-style multipath). *)

type result = Restricted.result = { lower : float; upper : float; phases : int }

let value r = 0.5 *. (r.lower +. r.upper)

(* Restricted concurrent throughput of [tm] with every flow limited to
   its [k] diverse shortest paths. *)
let ksp_throughput ?(eps = 0.25) ?(tol = 0.03) (topo : Topology.t) tm ~k =
  if k < 1 then invalid_arg "Routing.ksp_throughput: k < 1";
  let g = topo.Topology.graph in
  Restricted.solve ~eps ~tol g ~paths:(Llskr.path_sets g ~k) (Tm.commodities tm)

(* Convenience ladder: single path, modest multipath, optimal. *)
let ladder ?solver (topo : Topology.t) tm ~ks =
  let optimal = Throughput.of_tm ?solver topo tm in
  let restricted = List.map (fun k -> ksp_throughput topo tm ~k) ks in
  (restricted, optimal)
