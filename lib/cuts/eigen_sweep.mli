(** Eigenvector sweep cuts (Appendix C, after Chung): prefixes of the
    second-eigenvector node order — the estimator that found most sparse
    cuts in the paper's Table II. *)

val sparsest : Cut.prepared -> float * Cut.t option
