(* Front door for throughput computation: picks the exact LP for small
   instances and the FPTAS otherwise, returning a bracketed estimate
   either way. *)

type estimate = {
  value : float; (* point estimate: midpoint of [lower, upper] *)
  lower : float;
  upper : float;
}

type solver =
  | Auto
  | Exact_lp
  | Approx of { eps : float; tol : float }

let exact_estimate v = { value = v; lower = v; upper = v }

let of_fleischer (r : Fleischer.result) =
  { value = 0.5 *. (r.Fleischer.lower +. r.Fleischer.upper);
    lower = r.Fleischer.lower;
    upper = r.Fleischer.upper }

(* Instances below this LP-variable budget are solved exactly; above it,
   approximately. It keeps exact solves well under a second. *)
let auto_exact_threshold = 1_500

let throughput ?deadline ?(solver = Auto) ?on_check g commodities =
  match solver with
  | Exact_lp ->
    let v, _ = Exact.solve ?deadline ?on_check g commodities in
    exact_estimate v
  | Approx { eps; tol } ->
    of_fleischer (Fleischer.solve ?deadline ~eps ~tol ?on_check g commodities)
  | Auto ->
    if Exact.variable_budget g commodities <= auto_exact_threshold then begin
      let v, _ = Exact.solve ?deadline ?on_check g commodities in
      exact_estimate v
    end
    else of_fleischer (Fleischer.solve ?deadline ?on_check g commodities)
