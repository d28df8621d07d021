(** DCell(n, k) (Guo et al.): recursive server-centric topology;
    DCell_0 is n servers on one switch, and level l joins
    [t_{l-1} + 1] sub-DCells with one server-server link per pair. *)

val make : n:int -> k:int -> unit -> Topology.t
