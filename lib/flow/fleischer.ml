module Graph = Tb_graph.Graph
module Sssp = Tb_graph.Sssp
module Traversal = Tb_graph.Traversal
module Metrics = Tb_obs.Metrics
module Trace = Tb_obs.Trace
module Convergence = Tb_obs.Convergence
module A1 = Bigarray.Array1
(* Maximum concurrent flow by multiplicative weights
   (Garg-Konemann / Fleischer FPTAS), with certified bounds.

   This is the workhorse that replaces the paper's Gurobi runs: the
   throughput of (network, traffic matrix) is the optimum of the
   max-concurrent-flow LP, which this solver brackets between a feasible
   primal value and a dual upper bound.

   Mechanics per the classic scheme:
   - every arc carries a length l(a), initially 1/c(a);
   - a "phase" routes each commodity's full demand along (approximately)
     shortest paths under l, multiplying l(a) by (1 + eps * f/c(a)) for
     every push of f across a;
   - commodities sharing a source are routed off one shortest-path tree,
     which is recomputed only when the tree path has grown stale by more
     than a (1 + eps) factor (Fleischer's speedup).

   Certification (instead of the textbook fixed phase count):
   - primal: after [p] completed phases every commodity has been routed
     [p * d_j]; dividing the accumulated arc flow by its worst
     congestion max_a F(a)/c(a) yields a feasible solution with
     lambda >= p / congestion;
   - dual: for any lengths l, lambda* <= D(l) / alpha(l) where
     D(l) = sum_a l(a) c(a) and alpha(l) = sum_j d_j dist_l(s_j, t_j)
     (LP duality for concurrent flow);
   - we stop when upper/lower <= 1 + tol.

   Lengths grow geometrically, so they are renormalized when they become
   large; every quantity used (path choice, D/alpha) is scale-invariant.

   The state and its bookkeeping (lengths, flows, pushes, both bounds,
   the stopping rule) live in {!Mwu}, shared with {!Restricted}. This
   module is the shortest-path-tree oracle: the Dial load estimate, tree
   routing with its staleness test, alpha summed in group order, and the
   eps anneal.

   Scale. All per-arc state (lengths, flows, snapshots) and per-node
   state (tree distances) lives in Bigarrays — flat and unscanned by
   the GC — and the shortest-path workhorse is selected by instance
   size: heap Dijkstra below [Sssp.auto_delta_arcs] arcs (where its
   constants win), delta-stepping above it (see {!Tb_graph.Sssp}). The
   one-off load estimate uses Dial buckets (its lengths are all-ones by
   construction).

   One domain: the route phases are inherently sequential (every push
   updates the lengths the next push routes against), and the two
   certification passes — the load estimate and the dual bound
   recomputed every 10 phases — run one tree per source group in group
   order on the same scratch state, so a solve's bounds, flows and
   phase count do not depend on the domain count. Domain parallelism
   belongs to the callers that map over independent solves. *)

type result = {
  lower : float; (* certified achievable throughput *)
  upper : float; (* certified upper bound *)
  flow : float array; (* feasible per-arc flow achieving [lower] *)
  lengths : float array; (* dual certificate: upper = D(l)/alpha(l) *)
  phases : int;
}

type workhorse = Auto | Heap_dijkstra | Delta_stepping

let value r = 0.5 *. (r.lower +. r.upper)

(* Observability handles, obtained once; increments are plain field
   writes (see Tb_obs.Metrics). [m_dijkstra] shares its name with the
   other Dijkstra-driven solvers so "dijkstra.runs" aggregates across
   the process (delta-stepping/Dial runs count as one "run" each: the
   counter tracks SSSP tree builds, whichever algorithm builds them). *)
let m_solves = Metrics.counter "fleischer.solves"
let m_phases = Metrics.counter "fleischer.phases"
let m_dijkstra = Metrics.counter "dijkstra.runs"
let t_solve = Metrics.timer "fleischer.solve"
let h_phases = Metrics.histogram "fleischer.phases_per_solve"
let g_lower = Metrics.gauge "fleischer.lower"
let g_upper = Metrics.gauge "fleischer.upper"

(* Default step size. Larger steps converge in fewer phases and, with
   the certified stopping rule, cannot cost correctness: both bounds
   hold for any step, and the step halves when the gap stalls. *)
let default_eps = 0.4
let default_tol = 0.03

(* Load of routing every commodity once along hop-shortest paths,
   ignoring capacities; {!Mwu.create} pre-scales demands by it so that a
   phase routes roughly "one unit of congestion" and the phase count
   stays O(log m / eps^2) regardless of the demand scale. Hop-shortest
   trees come from Dial buckets (unit lengths by definition), built on
   the solve's scratch state [st]; each commodity's demand is added
   along its tree path in group, commodity and path-arc order. *)
let load_estimate g st cs groups =
  let load = Graph.make_floats (Graph.num_arcs g) in
  A1.fill load 0.0;
  Array.iter
    (fun (s, idxs) ->
      Metrics.incr m_dijkstra;
      Sssp.dial g ~src:s st;
      Array.iter
        (fun j ->
          let d = cs.(j).Commodity.demand in
          (* Walk the tree path dst -> src; unreached leaves nothing. *)
          let v = ref cs.(j).Commodity.dst in
          let a = ref (Sssp.parent_arc st !v) in
          while !a >= 0 do
            A1.set load !a (A1.get load !a +. d);
            v := Graph.arc_src g !a;
            a := Sssp.parent_arc st !v
          done)
        idxs)
    groups;
  load

exception Unreachable_commodity of Commodity.t

(* Every undirected edge contributes an arc in each direction, so [dst]
   is reachable from [src] iff both lie in one connected component:
   one labelling pass serves every source. *)
let check_reachability g cs =
  let _, comp = Traversal.components g in
  Array.iter
    (fun c ->
      if comp.(c.Commodity.src) <> comp.(c.Commodity.dst) then
        raise (Unreachable_commodity c))
    cs

let solve ?deadline ?(eps = default_eps) ?(tol = default_tol)
    ?(max_phases = 30_000) ?(on_check = Convergence.tracing "fleischer")
    ?(sssp = Auto) ?warm_lengths g commodities =
  (* A deadline is just another observer of the periodic checks: it
     raises Timed_out at the next bound evaluation after expiry. *)
  let on_check = Tb_obs.Deadline.guard deadline on_check in
  let cs = Commodity.normalize commodities in
  if Array.length cs = 0 then
    invalid_arg "Fleischer.solve: no non-trivial commodities";
  check_reachability g cs;
  let n = Graph.num_nodes g in
  let num_arcs = Graph.num_arcs g in
  let use_delta =
    match sssp with
    | Auto -> num_arcs >= Sssp.auto_delta_arcs
    | Heap_dijkstra -> false
    | Delta_stepping -> true
  in
  let k = Array.length cs in
  Metrics.incr m_solves;
  Metrics.time t_solve @@ fun () ->
  Trace.span "fleischer.solve"
    ~args:[ ("commodities", Tb_obs.Json.Int k); ("arcs", Tb_obs.Json.Int num_arcs) ]
  @@ fun () ->
  let groups = Commodity.group_by_source ~n cs in
  let st = Sssp.create_state n in
  let t = Mwu.create g ~eps ~load:(load_estimate g st cs groups) ~warm_lengths cs in
  let len = t.Mwu.len and slot = t.Mwu.slot and c = t.Mwu.c in
  (* Each group's tree stops once its destinations are settled: their
     distances and parent paths are final then, and nothing else of the
     tree is read. The heap takes the group's destination array; delta-
     stepping stops early only for a single destination. Both options
     are built once per solve, not once per tree. *)
  let dsts =
    Array.map (fun (_, idxs) -> Array.map (fun j -> cs.(j).Commodity.dst) idxs) groups
  in
  let heap_dsts = Array.map Option.some dsts in
  let delta_target =
    Array.map (fun d -> if Array.length d = 1 then Some d.(0) else None) dsts
  in
  (* Scratch: current tree distance per destination, per active source. *)
  let dist_at_tree = Graph.make_floats n in
  A1.fill dist_at_tree infinity;
  (* Scratch: the arcs of the tree path being routed, dst to src. *)
  let path = Array.make n 0 in
  let sssp_tree gi =
    Metrics.incr m_dijkstra;
    let src = fst groups.(gi) in
    if use_delta then
      Sssp.delta_stepping ?target:delta_target.(gi) ~max_len:c.Mwu.max_len g ~len ~src st
    else Sssp.dijkstra ?dsts:heap_dsts.(gi) g ~len ~src st
  in
  (* alpha(l) under the *current* lengths, for the dual bound: one SSSP
     per source group on the solve's own state (every phase refreshes a
     group's tree before routing it), summed within the group in
     commodity order and folded in group order. Each group's demands
     are gathered once per solve, so the per-tree sum is one
     [Sssp.weighted_distance_sum] call rather than a boxed
     [Sssp.distance] per commodity. The early-exit trees leave every
     destination's distance final, so alpha is unchanged. *)
  let weights =
    Array.map (fun (_, idxs) -> Array.map (fun j -> t.Mwu.demand.(j)) idxs) groups
  in
  let alpha () =
    let acc = ref 0.0 in
    for gi = 0 to Array.length groups - 1 do
      sssp_tree gi;
      acc := !acc +. Sssp.weighted_distance_sum st ~targets:dsts.(gi) ~weights:weights.(gi)
    done;
    !acc
  in
  let dual_check () =
    Mwu.dual_check t ~alpha:(alpha ()) on_check;
    Trace.counter "dijkstra" [ ("runs", float_of_int (Metrics.count m_dijkstra)) ]
  in
  let stall_window = 120 in
  let window_start = ref 0 in
  let window_gap = ref infinity in
  (* Rebuild the tree of group [gi] and record its destinations'
     distances, against which the phase loop measures staleness. *)
  let refresh gi =
    sssp_tree gi;
    Sssp.distances_into st ~targets:dsts.(gi) dist_at_tree
  in
  let running = ref true in
  while !running do
    (* ---- One phase: route every commodity's full demand. ----

       Each commodity's demand is routed along the current tree of its
       source: walk parent arcs to collect the path and measure its
       current length (no allocation), then either push along it or,
       when the path has grown stale by more than a (1 + eps) factor,
       refresh the tree and retry. Plain loops over local refs: no float
       crosses a call, so nothing here is boxed. *)
    for gi = 0 to Array.length groups - 1 do
      let s, idxs = groups.(gi) in
      refresh gi;
      for i = 0 to Array.length idxs - 1 do
        let j = idxs.(i) in
        let dst = cs.(j).Commodity.dst in
        c.Mwu.remaining <- t.Mwu.demand.(j);
        while c.Mwu.remaining > 1e-15 do
          let cur_len = ref 0.0 and hops = ref 0 in
          let v = ref dst in
          while !v <> s do
            let a = Sssp.parent_arc st !v in
            if a < 0 then failwith "Fleischer: lost reachability";
            cur_len := !cur_len +. A1.unsafe_get len (A1.unsafe_get slot a);
            path.(!hops) <- a;
            incr hops;
            v := Graph.arc_src g a
          done;
          if !cur_len > ((1.0 +. c.Mwu.eps) *. A1.get dist_at_tree dst) +. 1e-300
          then refresh gi
          else Mwu.route t path !hops
        done
      done
    done;
    Mwu.end_phase t;
    Metrics.incr m_phases;
    if t.Mwu.phases mod 10 = 0 || t.Mwu.phases = 1 then begin
      dual_check ();
      (* Stall detection: if the gap improved by < 2% relatively since
         the window started, halve the step. A large step closes most of
         the gap cheaply, a smaller one finishes the job; both bounds
         hold for any step schedule, so adapting cannot compromise
         correctness. *)
      let gap = c.Mwu.upper /. max c.Mwu.lower 1e-300 in
      if t.Mwu.phases - !window_start >= stall_window then begin
        if gap > !window_gap /. 1.02 && c.Mwu.eps > 0.021 then
          c.Mwu.eps <- max 0.02 (c.Mwu.eps /. 2.0);
        window_start := t.Mwu.phases;
        window_gap := gap
      end
      else if gap < !window_gap /. 1.02 then begin
        window_start := t.Mwu.phases;
        window_gap := gap
      end
    end;
    running := not (Mwu.converged t ~solver:"Fleischer" ~tol ~max_phases)
  done;
  (* Final tight dual check. *)
  dual_check ();
  Metrics.observe h_phases (float_of_int t.Mwu.phases);
  let lower = Mwu.lower t and upper = Mwu.upper t in
  Metrics.set g_lower lower;
  Metrics.set g_upper upper;
  {
    lower;
    upper;
    flow =
      Array.init num_arcs (fun a -> A1.get t.Mwu.best_flow a *. c.Mwu.flow_scale);
    lengths = Array.init num_arcs (fun a -> A1.get t.Mwu.best_len (A1.get slot a));
    phases = t.Mwu.phases;
  }
