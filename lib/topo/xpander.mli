(** Xpander (Valadarsky et al.): the k-lift of K_{d+1} — a
    deterministic-structure expander with Jellyfish-like performance;
    [degree]-regular on [lift * (degree + 1)] switches. *)

module Rng = Tb_prelude.Rng

val make :
  ?hosts_per_switch:int ->
  rng:Rng.t ->
  lift:int ->
  degree:int ->
  unit ->
  Topology.t
