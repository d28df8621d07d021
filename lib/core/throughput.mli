(** Throughput of a topology under a traffic matrix (Section II-A): the
    maximum [t] such that the TM scaled by [t] admits a feasible
    multicommodity flow with optimal routing.

    Both entry points run the {!Tb_harness.Solve} chain: [Auto] the
    whole chain (at Fleischer's default gap), [Exact_lp] only the exact
    rung, [Approx] the FPTAS then the cut rung. A disconnected demand
    yields the exact bracket [{0, 0, 0}] under every selection. *)

module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf

val of_tm : ?solver:Mcf.solver -> Topology.t -> Tm.t -> Mcf.estimate

(** Same TM evaluated on a bare graph (e.g. a same-equipment random
    rewiring of the topology). *)
val of_graph : ?solver:Mcf.solver -> Tb_graph.Graph.t -> Tm.t -> Mcf.estimate
