(** Constructive Theorem 2: Valiant load balancing over the A2A flow.
    Produces a certified feasible throughput for any hose TM — at least
    half the A2A throughput per unit of hose volume — by building the
    explicit two-hop relay loads, without solving the TM's own LP. *)

module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf

type certificate = {
  a2a_throughput : float; (** certified feasible A2A throughput *)
  vlb_throughput : float; (** guaranteed throughput for the TM *)
  worst_overlay_load : float;
      (** worst overlay-link utilization at [vlb_throughput]; at most 1
          up to float dust — the executable proof *)
}

(** Largest per-endpoint send or receive total of a TM. *)
val hose_volume : Tm.t -> float

val certify : ?solver:Mcf.solver -> Topology.t -> Tm.t -> certificate
