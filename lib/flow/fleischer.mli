(** Maximum concurrent flow by multiplicative weights (Fleischer /
    Garg–Könemann), with certified primal and dual bounds.

    The throughput of a (network, traffic matrix) pair is the optimum of
    the max-concurrent-flow LP; this solver brackets that optimum:
    [lower] is achieved by an explicit feasible flow, [upper] comes from
    LP duality ([D(l)/alpha(l)] for the final lengths [l]), and iteration
    stops once [upper/lower <= 1 + tol]. The step size anneals downward
    automatically when the gap stalls. *)

module Graph = Tb_graph.Graph

type result = {
  lower : float; (** certified achievable throughput *)
  upper : float; (** certified upper bound *)
  flow : float array; (** feasible per-arc flow achieving [lower] *)
  lengths : float array;
      (** dual certificate: the per-arc lengths [l] that achieved
          [upper], i.e. [upper = D(l)/alpha(l)] with
          [D(l) = sum_a l(a) c(a)] and
          [alpha(l) = sum_j d_j dist_l(s_j, t_j)] — machine-checkable
          independently of this solver (see {!Tb_cert.Cert}) *)
  phases : int;
}

(** Midpoint of the bracket. *)
val value : result -> float

val default_eps : float
val default_tol : float

(** Per-source shortest-path workhorse selection. [Auto] picks heap
    Dijkstra below {!Tb_graph.Sssp.auto_delta_arcs} arcs and
    delta-stepping (see {!Tb_graph.Sssp}) at or above it; both run
    sequentially. The explicit
    constructors force one for differential tests. Either choice yields
    a valid certified bracket; trajectories (and hence the exact bracket
    endpoints) may differ because shortest-path {e trees} are
    tie-broken differently. *)
type workhorse = Auto | Heap_dijkstra | Delta_stepping

exception Unreachable_commodity of Commodity.t

(** [solve g commodities] brackets the maximum concurrent throughput.
    @param deadline wall-clock budget (milliseconds, see
    {!Tb_obs.Deadline}), checked at every bound evaluation; expiry
    raises [Tb_obs.Deadline.Timed_out].
    @param eps initial multiplicative step (anneals automatically).
    @param tol certified relative gap at which to stop:
    [upper / lower <= 1 + tol] (dimensionless).
    @param max_phases hard cap (a warning is logged if hit; the result
    is still a valid bracket).
    @param on_check convergence sink invoked at every bound check (and
    once at termination) with the solver-internal best bounds; defaults
    to forwarding samples to the trace buffer, which is a no-op unless
    tracing is enabled. See {!Tb_obs.Convergence}.
    @param warm_lengths optional initial length function, e.g. the
    [lengths] certificate of a solve on a neighboring instance. Used
    only if it has exactly one strictly positive finite entry per arc;
    anything else silently falls back to the cold [1/cap] start. Warm
    starts cannot compromise correctness — the primal bound counts
    completed phases and the dual bound [D(l)/alpha(l)] holds for any
    positive [l] — they only change how fast the bracket closes.
    @raise Invalid_argument if no commodity has positive demand.
    @raise Unreachable_commodity if some demand has no path. *)
val solve :
  ?deadline:Tb_obs.Deadline.t ->
  ?eps:float ->
  ?tol:float ->
  ?max_phases:int ->
  ?on_check:Tb_obs.Convergence.sink ->
  ?sssp:workhorse ->
  ?warm_lengths:float array ->
  Graph.t ->
  Commodity.t array ->
  result
