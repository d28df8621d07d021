(** Brute-force cut enumeration, capped like the paper's "limited
    brute-force computation" (10,000 cuts by default). *)

module Graph = Tb_graph.Graph

val default_cap : int

(** Iterate proper cuts as bitmasks [1, 2, ...] up to the cap: node [v]
    is inside iff bit [v] of the mask is set, and node [n-1] is always
    outside (each complementary pair once). On graphs too large for
    exhaustive enumeration the capped prefix is cuts of the low-numbered
    nodes. The callback's array is reused between calls. *)
val iter : ?max_cuts:int -> Graph.t -> (Cut.t -> unit) -> unit

(** Best (minimum) sparsity among enumerated cuts, with a witness. *)
val sparsest : ?max_cuts:int -> Cut.prepared -> float * Cut.t option

(** Whether the cap covers the whole cut space of this graph. *)
val exhaustive : Graph.t -> max_cuts:int -> bool
