(** Hose-model traffic matrices, stored as node-level flow lists.

    A TM conceptually assigns a demand to every ordered server pair; the
    flow LP only sees the node-level aggregation, so that is what is
    stored: [(u, v, w)] requests [w] units from node [u] to node [v].
    Under hose normalization every server sends and receives at most one
    unit, which makes throughput values comparable across TMs (the
    paper's "absolute throughput"). *)

module Commodity = Tb_flow.Commodity
module Topology = Tb_topo.Topology

type t

(** Build from raw flows; zero-weight and self flows are dropped. *)
val make : label:string -> (int * int * float) array -> t

val label : t -> string
val flows : t -> (int * int * float) array
val num_flows : t -> int
val commodities : t -> Commodity.t array
val total_demand : t -> float

(** Scale all demands by a constant. *)
val scale : float -> t -> t

(** Per-node (sent, received) volumes over [n] nodes. *)
val node_volumes : n:int -> t -> float array * float array

(** Largest per-server send/receive volume under the topology's server
    placement (1.0 = exactly hose-saturating). Raises
    [Invalid_argument] if traffic terminates at a hostless node. *)
val hose_utilization : Topology.t -> t -> float

(** Rescale so {!hose_utilization} is exactly 1. *)
val normalize_hose : Topology.t -> t -> t

(** Apply a node relabeling (placement shuffle). *)
val relabel : int array -> t -> t
