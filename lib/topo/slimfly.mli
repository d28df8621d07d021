(** Slim Fly (Besta–Hoefler): McKay–Miller–Širáň diameter-2 graphs over
    a prime field F_q with q ≡ 1 (mod 4); 2q² routers of degree
    (3q−1)/2. *)

(** Admissible parameter: prime and ≡ 1 (mod 4), e.g. 5, 13, 17, 29. *)
val valid_q : int -> bool

(** Default servers per router: about half the network degree. *)
val make : ?hosts_per_switch:int -> q:int -> unit -> Topology.t
