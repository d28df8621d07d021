(** Disjoint-set forest with path compression and union by rank. *)

type t

val create : int -> t

(** [union t x y] merges the sets of [x] and [y]; returns [false] if they
    were already in the same set. *)
val union : t -> int -> int -> bool

val same : t -> int -> int -> bool

(** Current number of disjoint sets. *)
val components : t -> int
