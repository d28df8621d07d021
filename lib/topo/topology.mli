(** A topology instance: a switch-level graph plus server placement.

    Switch-centric networks (fat tree, hypercube, Jellyfish, ...) attach
    [hosts.(v)] servers to switch [v] over infinite-capacity edge links,
    so servers are not graph nodes. Server-centric networks (BCube,
    DCell) relay traffic through servers, which therefore appear as
    graph nodes with unit-capacity links and [hosts.(v) = 1]. *)

module Graph = Tb_graph.Graph

type kind = Switch_centric | Server_centric

type t = {
  name : string;
  params : string; (** human-readable parameter summary *)
  kind : kind;
  graph : Graph.t;
  hosts : int array; (** servers attached at each node *)
}

(** Raises [Invalid_argument] on a hosts/graph size mismatch or negative
    host counts. *)
val make :
  name:string ->
  params:string ->
  kind:kind ->
  graph:Graph.t ->
  hosts:int array ->
  t

val num_servers : t -> int
val num_switches : t -> int

(** Nodes that terminate traffic (hosts > 0), ascending. *)
val endpoint_nodes : t -> int array

(** ["Name(params)"]. *)
val label : t -> string

val pp : Format.formatter -> t -> unit

(** Switch-centric topology with [hosts_per_switch] servers at every
    switch. *)
val switch_centric :
  name:string -> params:string -> hosts_per_switch:int -> Graph.t -> t

(** Same fabric, different server placement. *)
val with_hosts : t -> int array -> t

(** Same fabric with one server per endpoint node (per-switch
    unit-volume TM convention; hostless nodes stay hostless); identity
    on server-centric topologies. *)
val unit_hosts : t -> t

(** [total] servers spread as evenly as possible over [n] nodes. *)
val spread_hosts : n:int -> total:int -> int array
