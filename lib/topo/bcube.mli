(** BCube(n, k) (Guo et al.): server-centric; n^(k+1) servers with k+1
    links each, (k+1) levels of n^k switches. Servers forward traffic,
    so they are graph nodes. *)

val make : n:int -> k:int -> unit -> Topology.t
