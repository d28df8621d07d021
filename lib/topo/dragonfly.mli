(** Dragonfly (Kim et al.): complete-graph groups of [a] routers with
    [p] servers and [h] global links per router, at the maximum size
    g = a*h + 1 groups with one global link per group pair. *)

(** The balanced recommendation a = 2p = 2h, parameterized by [h]. *)
val balanced : h:int -> unit -> Topology.t
