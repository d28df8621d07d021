(* Per-solve wall-clock budgets.

   The iterative solvers expose periodic hooks ([?on_check] on
   Fleischer/Restricted/Colgen, pivot events on the simplex); a
   deadline is a start timestamp plus a budget in milliseconds, and
   {!check} raises once the budget is spent. Threading {!sink} /
   {!hook} through those existing hooks turns any solve into a bounded
   one without touching the solver inner loops: the solver unwinds at
   its next check point, which is at most 10 phases (or a few hundred
   pivots) late. *)

exception Timed_out of { elapsed_ms : float; budget_ms : float }

type t = { start_ns : int64; budget_ms : float }

let start ~budget_ms = { start_ns = Clock.now_ns (); budget_ms }

let elapsed_ms t = Clock.ns_to_ms (Clock.elapsed_ns t.start_ns)

let remaining_ms t =
  if t.budget_ms = infinity then infinity
  else Float.max 0.0 (t.budget_ms -. elapsed_ms t)

let expired t = elapsed_ms t > t.budget_ms

let check t =
  if expired t then
    raise (Timed_out { elapsed_ms = elapsed_ms t; budget_ms = t.budget_ms })

(* Adapters for the two hook shapes in the solver layer. *)
let sink t : Convergence.sink = fun _ -> check t
let hook t () = check t

let guard deadline on_check =
  match deadline with None -> on_check | Some d -> Convergence.combine (sink d) on_check

let describe = function
  | Timed_out { elapsed_ms; budget_ms } ->
    Some
      (Printf.sprintf "timed out after %.0f ms (budget %.0f ms)" elapsed_ms
         budget_ms)
  | _ -> None
