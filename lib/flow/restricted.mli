(** Path-restricted maximum concurrent flow: each commodity may only use
    an explicit set of paths (arc lists). Used to evaluate routing
    schemes — e.g. the LLSKR replication of Fig. 15 — with the same
    certified-bracket method, on the same {!Mwu} state, as {!Fleischer}. *)

module Graph = Tb_graph.Graph

type spec = { commodity : Commodity.t; paths : int list array }
type result = { lower : float; upper : float; phases : int }

(** @raise Invalid_argument on an empty commodity set or a commodity
    with an empty path set.
    @param deadline wall-clock budget (milliseconds, see
    {!Tb_obs.Deadline}), checked at every bound evaluation; expiry
    raises [Tb_obs.Deadline.Timed_out].
    @param tol certified relative gap at which to stop:
    [upper / lower <= 1 + tol] (dimensionless).
    @param on_check convergence sink (see {!Tb_obs.Convergence});
    defaults to trace forwarding, a no-op unless tracing is enabled.
    @param warm_lengths optional initial length function with the same
    contract as {!Fleischer.solve}: used only if every arc has a
    strictly positive finite entry, otherwise the cold [1/cap] start is
    kept; affects convergence speed only, never bracket validity. *)
val solve :
  ?deadline:Tb_obs.Deadline.t ->
  ?eps:float ->
  ?tol:float ->
  ?max_phases:int ->
  ?on_check:Tb_obs.Convergence.sink ->
  ?warm_lengths:float array ->
  Graph.t ->
  spec array ->
  result
