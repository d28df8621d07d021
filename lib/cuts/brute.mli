(** Brute-force cut enumeration, capped like the paper's "limited
    brute-force computation" (10,000 cuts by default). *)

module Graph = Tb_graph.Graph

val default_cap : int

(** Best (minimum) sparsity among enumerated cuts, with a witness. *)
val sparsest : ?max_cuts:int -> Cut.prepared -> float * Cut.t option

(** Whether the cap covers the whole cut space of this graph. *)
val exhaustive : Graph.t -> max_cuts:int -> bool
