(** Degree-preserving random graphs: the "same equipment" normalizer of
    the paper and the Jellyfish (random regular) construction. *)

exception Infeasible of string

(** Random simple graph realizing the exact degree sequence, as an edge
    list. Raises {!Infeasible} on unrealizable sequences. *)
val random_with_degrees :
  ?max_attempts:int -> Tb_prelude.Rng.t -> int array -> (int * int) list

(** Degree-preserving double-edge swaps until all edges lie in one
    connected component. *)
val connect_by_swaps :
  ?max_swaps:int ->
  Tb_prelude.Rng.t ->
  n:int ->
  (int * int) list ->
  (int * int) list

(** Random graph with exactly the same node count and per-node degrees
    as the input (the paper's relative-throughput baseline). *)
val same_equipment_random : Tb_prelude.Rng.t -> Graph.t -> Graph.t

(** Jellyfish switch fabric: a random [degree]-regular connected graph on
    [n] switches. *)
val random_regular : Tb_prelude.Rng.t -> n:int -> degree:int -> Graph.t
