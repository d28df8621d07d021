(** Binary hypercube: 2^dim switches, dim-regular, diameter dim. *)

val make : ?hosts_per_switch:int -> dim:int -> unit -> Topology.t
