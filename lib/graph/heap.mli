(** Binary min-heap over [(float, int)] with lazy deletion (no
    decrease-key; callers skip stale pops). *)

type t

val create : ?capacity:int -> unit -> t
val is_empty : t -> bool
val size : t -> int

(** Reset to empty without releasing storage. *)
val clear : t -> unit

val push : t -> float -> int -> unit

(** Pop the minimum [(priority, payload)]. Raises on empty. *)
val pop : t -> float * int

(** {2 Allocation-free pop}

    [top_prio]/[top_data] read the minimum, [drop] removes it; the
    split avoids boxing a result tuple in the Dijkstra inner loop. All
    three raise on an empty heap. *)

val top_prio : t -> float
val top_data : t -> int
val drop : t -> unit

(** {2 Key-indexed entry points}

    For callers whose priorities live in a Bigarray indexed by payload
    (Dijkstra's distance array): priorities never cross the module
    boundary, so neither entry point boxes a float. *)

type keys = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [push_keyed h keys v] pushes [v] with priority [keys.{v}] as of now. *)
val push_keyed : t -> keys -> int -> unit

(** Remove the minimum entry and return its payload [v] if it is current
    (its priority is [<= keys.{v}]: with keys that only decrease, the
    entry holds [v]'s present key), or [-1] if it is stale. Raises on an
    empty heap. Pop order equals the [top_data]/[drop] sequence. *)
val pop_current : t -> keys -> int
