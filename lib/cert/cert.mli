(** Machine-checkable certificates for throughput results.

    Every checker validates a solver's claim {e independently of the
    solver that produced it}: the primal checker replays conservation
    and capacity arithmetic over the claimed flow, the dual checker
    re-derives the upper bound from the returned length function with
    its own Bellman–Ford (not the solvers' Dijkstra), and the cut
    checker recomputes the witness cut's sparsity from scratch. A
    checker never trusts a solver-internal invariant — only the LP
    duality facts from the paper (Section II-A) and Theorem 2.

    All checkers return [Ok ()] or [Error msg] where [msg] pinpoints
    the violated inequality with its numbers. *)

module Graph = Tb_graph.Graph
module Commodity = Tb_flow.Commodity

type verdict = (unit, string) result

(** {1 Primal certificates} *)

(** [primal_feasible g cs ~throughput ~flow] checks that the per-arc
    aggregate [flow] (length [num_arcs g]) routes [throughput] times
    every demand: capacity ([flow a <= cap a]) on every arc and
    aggregate conservation at every node
    ([outflow - inflow = throughput * (supply - sink)]).

    Caveat: for a {e balanced} TM (every node sources exactly what it
    sinks — permutations, longest matching, all-to-all), the right-hand
    side is zero everywhere, so the aggregate certificate pins the
    flow's feasibility but not the throughput claim itself. Pair it
    with {!path_flows_feasible} (per-commodity routed volume) or a
    cross-solver {!agreement} check to pin the value. *)
val primal_feasible :
  ?rtol:float ->
  Graph.t ->
  Commodity.t array ->
  throughput:float ->
  flow:float array ->
  verdict

(** [path_flows_feasible g cs ~throughput ~paths] checks a per-commodity
    path decomposition (as returned by {!Tb_flow.Colgen}): every path
    connects its commodity's endpoints, each commodity carries at least
    [throughput * demand], and the aggregate respects capacities. *)
val path_flows_feasible :
  ?rtol:float ->
  Graph.t ->
  Commodity.t array ->
  throughput:float ->
  paths:(int list * float) list array ->
  verdict

(** {1 Dual / upper-bound certificates} *)

(** [bellman_ford g ~len ~src] is the distance from [src] to every node
    under per-arc lengths [len] (indexed by arc id; [infinity] or NaN
    bans an arc), [infinity] where unreachable. Plain arc-order rounds
    to a fixpoint, sharing no code with the solvers' shortest-path
    engine: the checkers use it, and so do tests as an oracle. *)
val bellman_ford : Graph.t -> len:float array -> src:int -> float array

(** [dual_bound_valid g cs ~lengths ~upper] re-derives the concurrent-
    flow duality bound [D(l)/alpha(l)] from the certificate [lengths]
    (shortest distances by Bellman–Ford, independent of the solvers) and
    checks the claimed [upper] does not undercut it. *)
val dual_bound_valid :
  ?rtol:float ->
  Graph.t ->
  Commodity.t array ->
  lengths:float array ->
  upper:float ->
  verdict

(** [cut_bound_valid g flows ~cut ~claimed] recomputes the witness cut's
    sparsity and checks it matches the claimed upper bound. *)
val cut_bound_valid :
  ?rtol:float ->
  Graph.t ->
  (int * int * float) array ->
  cut:Tb_cuts.Cut.t ->
  claimed:float ->
  verdict

(** {1 Bracket certificates} *)

(** [lower <= value <= upper], all finite and non-negative
    (the [upper] may be [infinity]). *)
val bounds_ordered :
  ?rtol:float -> lower:float -> value:float -> upper:float -> unit -> verdict

(** [fptas_gap ~eps ~exact r] checks the FPTAS bracket against ground
    truth on a small instance: [exact] lies inside [[lower, upper]],
    and the achieved lower bound respects the Garg–Könemann
    [(1 - eps)^3] guarantee. *)
val fptas_gap :
  ?rtol:float ->
  eps:float ->
  exact:float ->
  Tb_flow.Fleischer.result ->
  verdict

(** [agreement brackets] checks that the certified intervals
    [(name, lower, upper)] of independent solvers pairwise intersect:
    [max lower <= min upper] after tolerance inflation. *)
val agreement : ?rtol:float -> (string * float * float) list -> verdict

(** {1 Paper invariants} *)

(** Theorem 2: [t_lm >= t_a2a / 2], checked soundly on brackets
    ([lm]'s upper bound must not fall below half of [a2a]'s lower
    bound). *)
val theorem2 :
  ?rtol:float ->
  a2a:float * float ->
  lm:float * float ->
  unit ->
  verdict

(** The canonical certificate names, in report order. *)
val all_names : string list
