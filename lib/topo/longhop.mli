(** Long Hop networks (Tomic): Cayley graphs over Z_2^dim extending the
    hypercube basis with long-hop generators chosen greedily to maximize
    the spectral gap (see DESIGN.md for the substitution rationale). *)

(** Generator set of size [degree] (>= dim), starting from the basis. *)
val generators : dim:int -> degree:int -> int list

(** [degree] defaults to [min (2^dim - 1) (2 * dim)]. *)
val make : ?hosts_per_switch:int -> ?degree:int -> dim:int -> unit -> Topology.t
