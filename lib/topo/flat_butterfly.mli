(** Flattened butterfly (Kim–Dally–Abts): the k-ary n-flat — k^(n-1)
    switches fully connected within each of n-1 dimensions, k servers
    per switch by default. *)

(** [stages] is the k-ary n-stage naming: [stages - 1] switch
    dimensions. [hosts_per_switch] defaults to the concentration [k]. *)
val make : ?hosts_per_switch:int -> k:int -> stages:int -> unit -> Topology.t
