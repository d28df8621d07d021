(** One- and two-node cuts (Appendix C) — cheap families that catch
    fringe bottlenecks in core-dense, edge-sparse networks. *)

(** Best (minimum) sparsity among one-node cuts, with a witness;
    [(infinity, None)] on graphs with fewer than two nodes. *)
val sparsest_one_node : Cut.prepared -> float * Cut.t option

(** The same over two-node cuts, on graphs with at least three nodes. *)
val sparsest_two_node : Cut.prepared -> float * Cut.t option
