(** Three-level k-ary fat tree (Al-Fares et al.): k pods of k/2 edge and
    k/2 aggregation switches, (k/2)² cores, k/2 servers per edge switch;
    nonblocking by construction. [k] must be even. *)

val make : k:int -> unit -> Topology.t
val num_edge_switches : k:int -> int
