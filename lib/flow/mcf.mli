(** Front door for throughput computation: exact LP for small instances,
    FPTAS otherwise, always returning a bracketed estimate. *)

type estimate = {
  value : float; (** point estimate (bracket midpoint) *)
  lower : float;
  upper : float;
}

type solver =
  | Auto  (** exact below {!auto_exact_threshold} LP variables *)
  | Exact_lp
  | Approx of { eps : float; tol : float }

(** LP-variable budget below which [Auto] solves exactly. *)
val auto_exact_threshold : int

(** @param deadline wall-clock budget (milliseconds, see
    {!Tb_obs.Deadline}) forwarded to whichever backend runs; expiry
    raises [Tb_obs.Deadline.Timed_out].
    @param on_check convergence sink forwarded to the chosen backend
    (the FPTAS reports certified bounds; the exact LP reports pivot
    events with a trivial bracket). *)
val throughput :
  ?deadline:Tb_obs.Deadline.t ->
  ?solver:solver ->
  ?on_check:Tb_obs.Convergence.sink ->
  Tb_graph.Graph.t ->
  Commodity.t array ->
  estimate
