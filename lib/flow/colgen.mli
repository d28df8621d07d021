(** Exact maximum concurrent flow by path-based column generation:
    equal in value to {!Exact}'s edge LP, but with one variable per
    used path, so it scales to mid-size instances under the dense
    simplex. Columns are priced in by Dijkstra under the capacity
    duals. *)

module Graph = Tb_graph.Graph

type result = {
  value : float;
  paths : (int list * float) list array;
      (** per commodity: the (arc-path, flow) decomposition at optimum *)
  iterations : int;
  columns : int; (** total columns generated *)
}

(** @param deadline wall-clock budget (milliseconds, see
    {!Tb_obs.Deadline}), checked once per pricing iteration; expiry
    raises [Tb_obs.Deadline.Timed_out].
    @param tol pricing tolerance (dimensionless reduced-cost slack): a
    column enters only if it undercuts its dual bound by more than
    [tol]. This is a termination guard, not a certified gap — the
    returned value is exact at the default.
    @param on_check convergence sink invoked once per pricing iteration
    with the master optimum as the certified lower bound (upper is
    [infinity] until termination); may raise to abort.
    Defaults to forwarding samples to the trace buffer.
    @raise Invalid_argument on an empty commodity set or an unreachable
    commodity. *)
val solve :
  ?deadline:Tb_obs.Deadline.t ->
  ?tol:float ->
  ?on_check:Tb_obs.Convergence.sink ->
  Graph.t ->
  Commodity.t array ->
  result
