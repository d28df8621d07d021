(** Random permutations, derangements, and group-avoiding matchings used
    to build random-matching traffic. *)

val random : Tb_prelude.Rng.t -> int -> int array
val is_permutation : int array -> bool
val inverse : int array -> int array

(** Random permutation [p] with [group i <> group (p i)] for all [i]
    (no sender is matched inside its own group). Fails only if no such
    permutation is found after many repair rounds — e.g. one group holds
    more than half the elements. *)
val derangement_avoiding :
  ?max_rounds:int -> Tb_prelude.Rng.t -> group:(int -> int) -> int -> int array

(** Random fixed-point-free permutation. *)
val derangement : Tb_prelude.Rng.t -> int -> int array
