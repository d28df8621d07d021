(** Bisection bandwidth: minimum capacity over balanced bipartitions.
    Exact by enumeration on small graphs; spectral seed + Kernighan–Lin
    refinement otherwise. *)

module Graph = Tb_graph.Graph
module Rng = Tb_prelude.Rng

(** Exhaustive minimum balanced cut; raises on graphs above ~24 nodes. *)
val exact : Graph.t -> float * Cut.t option

(** Bisection bandwidth estimate (capacity units). *)
val bandwidth : ?rng:Rng.t -> ?restarts:int -> Graph.t -> float

(** Bisection bandwidth used as a throughput bound for a TM: capacity of
    the best bisection over the larger directional demand crossing it. *)
val as_throughput_bound :
  ?rng:Rng.t -> ?restarts:int -> Graph.t -> (int * int * float) array -> float
