(** Fault-tolerant throughput solving with a graceful degradation chain:

    exact LP -> Fleischer FPTAS (retry with relaxed tolerance) ->
    cut/shortest-path-routing bounds.

    Every attempt runs under a wall-clock deadline (threaded through the
    solvers' periodic hooks), NaN/Inf guard-rails on all returned
    floats, and optional deterministic fault injection. The outcome
    records which rung produced the estimate and every failed attempt
    on the way — results carry their provenance. The last rung cannot
    fail: it certifies [throughput >= 1/congestion] by hop-shortest-path
    routing (0 for disconnected demands, which is exact) and an upper
    bound from the sparse-cut estimators and the volumetric capacity
    bound. *)

module Mcf = Tb_flow.Mcf

type rung = Exact_lp | Fptas | Cut_bound

val rung_name : rung -> string

type attempt = {
  a_rung : rung;
  a_tol : float; (** certified tolerance the attempt ran with (0 = exact) *)
  error : string;
}

type outcome = {
  estimate : Mcf.estimate;
  rung : rung; (** the rung that produced [estimate] *)
  attempts : attempt list; (** failed attempts, oldest first *)
  dual_lengths : float array option;
      (** FPTAS dual certificate lengths when that rung produced the
          estimate — the reusable warm-start state for neighboring
          cells (see {!Warm}) *)
}

type policy = {
  budget_ms : float;
      (** per-attempt wall-clock budget in milliseconds ([infinity] =
          unbounded) *)
  retries : int; (** extra FPTAS attempts after the first *)
  tol : float;
      (** certified relative gap of the first FPTAS attempt
          ([upper / lower <= 1 + tol], dimensionless) *)
  relax : float; (** tolerance multiplier per retry *)
  eps : float; (** FPTAS step size *)
  exact_threshold : int; (** LP-variable budget for the exact rung *)
  rungs : rung list; (** chain order *)
}

(** No budget, 2 retries at [x2] relaxation, exact below
    {!Tb_flow.Mcf.auto_exact_threshold} LP variables, all three rungs. *)
val default_policy : policy

(** The chain for a solver selection, on top of {!default_policy}:
    - [None] runs every rung;
    - [Some Exact_lp] runs only the exact rung, up to
      {!Tb_flow.Exact.max_lp_variables} LP variables;
    - [Some Fptas] runs the FPTAS, then [Cut_bound];
    - [Some Cut_bound] runs only the cut rung.

    [eps], [tol] and [budget_ms] default to {!default_policy}'s. *)
val policy_of :
  ?eps:float -> ?tol:float -> ?budget_ms:float -> rung option -> policy

(** Raised only when a custom [rungs] list omitting [Cut_bound] is
    exhausted. *)
exception Exhausted of attempt list

(** @param deadline overall wall-clock budget across the whole chain
    (milliseconds, see {!Tb_obs.Deadline}); each attempt runs under the
    tighter of this and [policy.budget_ms], and expiry degrades to the
    next rung rather than raising (the cut-bound rung always
    completes).
    @param warm_lengths warm-start the FPTAS with this length function
    (e.g. a neighboring cell's [dual_lengths]) in a single pre-attempt
    ahead of the cold chain. The warm bracket is re-derived by the
    independent {!Tb_cert.Cert} checkers (primal feasibility, dual
    bound, ordering); a red certificate — or any recoverable failure —
    is recorded as a failed attempt and the chain restarts cold, so a
    stale warm hint can degrade to cold but never ship an unchecked
    bracket. Ignored when [Fptas] is not in [policy.rungs].
    @raise Invalid_argument when no commodity has positive demand.
    @raise Exhausted see above. *)
val solve :
  ?policy:policy ->
  ?fault:Fault.t ->
  ?deadline:Tb_obs.Deadline.t ->
  ?warm_lengths:float array ->
  Tb_graph.Graph.t ->
  Tb_flow.Commodity.t array ->
  outcome

(** {!solve} on a topology's graph and a TM's commodities.
    @param warm a warm cache and the key this solve reads and writes:
    the key's entry, transported onto the graph, is the warm start
    ([warm_lengths] above), and the outcome's dual lengths, when the
    FPTAS produced it, replace the entry. *)
val throughput :
  ?policy:policy ->
  ?fault:Fault.t ->
  ?deadline:Tb_obs.Deadline.t ->
  ?warm:Warm.t * string ->
  Tb_topo.Topology.t ->
  Tb_tm.Tm.t ->
  outcome

(** Provenance record: bounds, producing rung, gap, failed attempts. *)
val outcome_to_json : outcome -> Tb_obs.Json.t
