(* The vocabulary of a throughput answer: a bracketed estimate and the
   solver selection that produced it. [Topobench.Throughput] maps a
   selection onto the [Tb_harness.Solve] chain. *)

type estimate = {
  value : float; (* point estimate: midpoint of [lower, upper] *)
  lower : float;
  upper : float;
}

type solver =
  | Auto
  | Exact_lp
  | Approx of { eps : float; tol : float }

(* Instances below this LP-variable budget are solved exactly; above it,
   approximately. It keeps exact solves well under a second. *)
let auto_exact_threshold = 1_500
