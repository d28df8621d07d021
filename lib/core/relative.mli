(** Relative throughput (Section IV): a topology's throughput normalized
    by same-equipment uniform-random graphs under the same traffic
    model. *)

module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Rng = Tb_prelude.Rng
module Stats = Tb_prelude.Stats

(** Server placement on the random baseline: [Spread] (default for
    generators) places the same server count evenly over all switches
    per the Jellyfish methodology; [Preserve] (default and required
    semantics for fixed TMs) keeps the original placement. *)
type placement = Spread | Preserve

type result = {
  absolute : Mcf.estimate; (** the topology's own throughput *)
  random_absolute : Stats.summary; (** same-equipment random graphs *)
  relative : Stats.summary; (** per-random-graph ratio samples *)
}

(** [compute_fixed ~rng topo tm] evaluates [iterations] independent
    random rewirings in parallel (OCaml domains), each under [tm]
    itself, and summarizes the ratios with 95% confidence intervals.
    Placement-sensitive TMs (the real-world rack workloads) use it. *)
val compute_fixed :
  ?solver:Mcf.solver ->
  ?iterations:int ->
  ?placement:placement ->
  rng:Rng.t ->
  Topology.t ->
  Tm.t ->
  result

(** As {!compute_fixed}, but the TM is regenerated for each graph, so
    each random graph faces its own near-worst-case TM: graph-dependent
    TMs (longest matching and derivatives) must use it. *)
val compute_gen :
  ?solver:Mcf.solver ->
  ?iterations:int ->
  ?placement:placement ->
  rng:Rng.t ->
  Topology.t ->
  (Rng.t -> Topology.t -> Tm.t) ->
  result
