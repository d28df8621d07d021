(** Eigenvector sweep cuts (Appendix C, after Chung): prefixes of the
    second-eigenvector node order — the estimator that found most sparse
    cuts in the paper's Table II. *)

module Graph = Tb_graph.Graph

val iter : Graph.t -> (Cut.t -> unit) -> unit
val sparsest : Cut.prepared -> float * Cut.t option
