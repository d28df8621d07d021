(** The vocabulary of a throughput answer: a bracketed estimate and the
    solver selection behind it. [Topobench.Throughput] maps a selection
    onto the [Tb_harness.Solve] degradation chain. *)

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
