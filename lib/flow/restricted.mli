(** Path-restricted maximum concurrent flow: each commodity may only use
    the paths (arc lists) a path evaluator gives it. Used to evaluate
    routing schemes — e.g. the LLSKR replication of Fig. 15 — with the
    same certified-bracket method, on the same {!Mwu} state, as
    {!Fleischer}. *)

module Graph = Tb_graph.Graph

type result = { lower : float; upper : float; phases : int }

(** [solve g ~paths cs] runs on [Commodity.normalize cs]; [paths src dst]
    is the set of arc lists that flow [src -> dst] may use, called once
    per kept commodity, in order.
    @raise Invalid_argument on an empty commodity set, or, naming the
    commodity, on an empty path set or a path that is not a contiguous
    arc chain from its [src] to its [dst].
    @param deadline wall-clock budget (milliseconds, see
    {!Tb_obs.Deadline}), checked at every bound evaluation; expiry
    raises [Tb_obs.Deadline.Timed_out].
    @param tol certified relative gap at which to stop:
    [upper / lower <= 1 + tol] (dimensionless).
    @param on_check convergence sink (see {!Tb_obs.Convergence});
    defaults to trace forwarding, a no-op unless tracing is enabled. *)
val solve :
  ?deadline:Tb_obs.Deadline.t ->
  ?eps:float ->
  ?tol:float ->
  ?max_phases:int ->
  ?on_check:Tb_obs.Convergence.sink ->
  Graph.t ->
  paths:(int -> int -> int list array) ->
  Commodity.t array ->
  result
