(** Expanding-region cuts (Appendix C): BFS balls of every radius around
    every origin — at most n * diameter cuts; catches clustered
    bottlenecks. *)

val sparsest : Cut.prepared -> float * Cut.t option
