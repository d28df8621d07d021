(** The paper's synthetic traffic families (Section II-C). All four are
    normalized so that every endpoint node sends and receives one unit
    in total, which puts the whole ladder on one comparable axis and
    makes Theorem 2's [A2A/2] floor apply verbatim. *)

module Topology = Tb_topo.Topology
module Rng = Tb_prelude.Rng

(** All-to-all: [T(u,v) = 1/n_e] between endpoint nodes. Within 2x of
    the worst case by Theorem 2. *)
val all_to_all : Topology.t -> Tm.t

(** Random matching with [k] servers per endpoint node: the union of
    [k] random fixed-point-free matchings over endpoint nodes, each of
    weight [1/k]. As [k] grows this approaches A2A. *)
val random_matching : ?k:int -> Rng.t -> Topology.t -> Tm.t

(** Longest matching — the paper's near-worst-case heuristic: the
    maximum-weight perfect matching of endpoints under shortest-path
    distance, one unit per matched pair. *)
val longest_matching : Topology.t -> Tm.t

(** Kodialam TM [26]: the transportation-LP relaxation of the same
    objective; equal optimum, but the solved vertex may spread weight
    over many flows. Cost grows as |endpoints|^2 LP variables. *)
val kodialam : Topology.t -> Tm.t

(** Demand-weighted mean hop distance of a TM's flows. *)
val mean_flow_distance : Topology.t -> Tm.t -> float
