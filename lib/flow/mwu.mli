(** The multiplicative-weights state of a max-concurrent-flow solve,
    shared by {!Fleischer} (shortest-path-tree oracle) and {!Restricted}
    (path-set oracle): lengths, flows, the push, renormalization, both
    certified bounds, the stopping rule and the demand rescale (the
    scheme is described in fleischer.ml). A solver supplies its oracle
    and its phase loop. *)

module Graph = Tb_graph.Graph

(** The scalars, in an all-float record: it is stored flat, so writes
    never box. Oracles write only [eps] and [remaining]. *)
type cells = {
  mutable eps : float;  (** step: a push of [f] scales [l(a)] by [1 + eps f / c(a)] *)
  mutable remaining : float;  (** demand of the commodity being routed, left this phase *)
  mutable max_len : float;  (** the largest current length, exactly *)
  mutable congestion : float;  (** [max_a flow(a) / c(a)], exactly *)
  mutable lower : float;  (** best certified lower bound, pre-scaled *)
  mutable upper : float;  (** best certified upper bound, pre-scaled *)
  mutable flow_scale : float;  (** [1 / congestion] when [lower] was set *)
}

(** Per-arc arrays are indexed by arc id, except [len] and [best_len]:
    they are in CSR slot order, as the {!Tb_graph.Sssp} kernels read
    them, so arc [a]'s length is [len.{slot.{a}}]. *)
type t = {
  cap : Graph.floats;
  slot : Graph.ints;  (** arc id -> CSR slot, {!Tb_graph.Graph.ba_arc_slot} *)
  len : Graph.floats;  (** current lengths, by slot *)
  flow : Graph.floats;
  best_len : Graph.floats;  (** the lengths that achieved [upper], by slot *)
  best_flow : Graph.floats;  (** times [flow_scale], a flow of value [lower] *)
  demand : float array;  (** per-commodity demand times [sigma] *)
  sigma : float;  (** demand pre-scale: one phase routes ~one unit of congestion *)
  c : cells;
  mutable phases : int;
}

(** [create g ~eps ~load ~warm_lengths cs]: [load] is the per-arc load of
    routing each demand once along the oracle's first path, and sets
    [sigma = 1 / max_a load(a) / c(a)]. Lengths start at [1/c(a)], or at
    [warm_lengths] rescaled to a maximum of 1 if it has one strictly
    positive finite entry per arc. Raises [Invalid_argument] unless
    [0 < eps < 1]. *)
val create :
  Graph.t ->
  eps:float ->
  load:Graph.floats ->
  warm_lengths:float array option ->
  Commodity.t array ->
  t

(** [route t path n] pushes [min remaining bottleneck] across arcs
    [path.(0)] .. [path.(n - 1)], in that order, and deducts it from
    [remaining]. *)
val route : t -> int array -> int -> unit

(** Count a phase, renormalize, and raise [lower] to
    [phases / congestion] (snapshotting the flows) if that is larger. *)
val end_phase : t -> unit

(** Lower [upper] to [D(l) / alpha], [D(l) = sum_a l(a) c(a)], for the
    oracle's [alpha = sum_j demand(j) dist_l(j)] (snapshotting the
    lengths), then report the bracket to the sink. *)
val dual_check : t -> alpha:float -> Tb_obs.Convergence.sink -> unit

(** [upper / lower <= 1 + tol], or [max_phases] reached (logged as a
    warning naming [solver]). *)
val converged : t -> solver:string -> tol:float -> max_phases:int -> bool

(** The bounds in the caller's demand units. *)
val lower : t -> float

val upper : t -> float
