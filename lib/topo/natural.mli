(** Synthetic "natural" (non-computer) networks for the cut studies —
    stand-ins for the paper's 66 food webs / social networks (see
    DESIGN.md): preferential attachment, small world, planted
    communities, and core-periphery families. All generators are
    deterministic given the RNG and return the giant component. *)

(** The deterministic zoo used by Fig. 3 / Table II: [count] graphs
    cycling through the four families at varied sizes. *)
val zoo : ?count:int -> seed:int -> unit -> Topology.t list
