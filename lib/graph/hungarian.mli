(** Exact assignment problem (Kuhn–Munkres with potentials), O(n³). *)

(** [maximize weight]: same, maximizing total weight. *)
val maximize : float array array -> int array

(** Total weight of an assignment under a weight matrix. *)
val total_weight : float array array -> int array -> float
