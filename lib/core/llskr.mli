(** Replication of the Yuan et al. LLSKR methodology (Fig. 15): subflows
    pinned to K diverse shortest paths, evaluated both by the original
    counting estimate and by exact path-restricted LP throughput. *)

module Graph = Tb_graph.Graph
module Topology = Tb_topo.Topology

(** [k] near-shortest paths spread across distinct uplinks (successive
    shortest paths under a multiplicative reuse penalty). Raises
    [Invalid_argument] if [k < 1] or the pair is disconnected. *)
val diverse_paths : Graph.t -> src:int -> dst:int -> k:int -> int list array

(** [path_sets g ~k] is a memoized [fun u v -> paths]: [diverse_paths]
    runs once per unordered pair, from the smaller node to the larger,
    and the other orientation gets the arc reversals of those paths. *)
val path_sets : Graph.t -> k:int -> int -> int -> int list array

(** Yuan-style estimate under all-to-all traffic: invert the maximum
    subflow count along each subflow's path, average per flow, rescale
    by N. *)
val counting_estimate : Topology.t -> k_paths:int -> float

(** Bracketed concurrent throughput restricted to the same path sets
    under the same A2A TM (midpoint returned). *)
val lp_estimate : ?tol:float -> Topology.t -> k_paths:int -> float
