(** Cuts and their sparsity under a traffic matrix.

    The sparsity of a cut is the throughput upper bound it induces:
    undirected crossing capacity over the larger directional demand
    crossing it. *)

module Graph = Tb_graph.Graph

(** Membership array: [cut.(v)] iff [v] is inside the subset. *)
type t = bool array

val of_list : n:int -> int list -> t
val size : t -> int

(** Neither empty nor full. *)
val is_proper : t -> bool

(** Undirected capacity crossing the cut. *)
val capacity : Graph.t -> t -> float

(** [(demand in->out, demand out->in)] for a flow list, summed in flow
    order. *)
val demand_across : (int * int * float) array -> t -> float * float

(** [capacity / max directional demand]; [infinity] when no demand
    crosses. Raises [Invalid_argument] on improper cuts. This naive
    evaluation is the oracle a checker recomputes a witness with; the
    estimators evaluate through {!sparsest}. *)
val sparsity : Graph.t -> (int * int * float) array -> t -> float

(** {1 Evaluation kernel} *)

(** A graph with its flows laid out in flat columns, built once per
    estimator run. *)
type prepared

(** Raises [Invalid_argument] if a flow endpoint is not a node. *)
val prepare : Graph.t -> (int * int * float) array -> prepared

val graph : prepared -> Graph.t

(** [sparsest p enumerate] evaluates every cut [enumerate] passes to its
    callback and returns the minimum sparsity with a copy of the first
    cut attaining it ([(infinity, None)] when no cut has crossing
    demand). Each value is bit-identical to {!sparsity} on the same cut,
    and nothing is allocated per cut. The cuts must be proper (this is
    not checked) and may be mutated between callbacks. *)
val sparsest : prepared -> ((t -> unit) -> unit) -> float * t option

val complement : t -> t
