(** HyperX (Ahn et al.): L dimensions of S switches, full mesh per
    dimension, T servers per switch — plus the cost search the paper
    uses to pick instances for a bisection target. *)

type config = { l : int; s : int; t : int }

val num_servers : config -> int
val switch_radix : config -> int

(** Relative bisection bandwidth of the worst dimension-aligned cut. *)
val relative_bisection : config -> float

val make : config -> Topology.t

(** Cheapest regular HyperX (switches, then links) with at least
    [servers] hosts, at least [bisection] relative bisection, and radix
    at most [radix]. L = 1 (a plain full mesh) is excluded. *)
val search : ?radix:int -> servers:int -> bisection:float -> unit -> config option
