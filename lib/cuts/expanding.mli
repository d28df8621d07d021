(** Expanding-region cuts (Appendix C): BFS balls of every radius around
    every origin — at most n * diameter cuts; catches clustered
    bottlenecks. *)

module Graph = Tb_graph.Graph

(** Iterate the balls of radius [0 .. ecc - 1] around each origin
    [0 .. n-1] in turn. The callback's array is reused between calls. *)
val iter : Graph.t -> (Cut.t -> unit) -> unit

val sparsest : Cut.prepared -> float * Cut.t option
