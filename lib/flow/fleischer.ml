module Graph = Tb_graph.Graph
module Sssp = Tb_graph.Sssp
module Traversal = Tb_graph.Traversal
module Parallel = Tb_prelude.Parallel
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
   state (tree distances) lives in Bigarrays — flat, unscanned by the
   GC, shared across domains without copying — and the shortest-path
   workhorse is selected by instance size: heap Dijkstra below
   [delta_threshold_arcs] arcs (where its constants win), delta-stepping
   above it (see {!Tb_graph.Sssp}). The one-off load estimate uses
   Dial buckets (its lengths are all-ones by construction).

   Parallelism: the route phases are inherently sequential (every push
   updates the lengths the next push routes against), but the two
   certification passes — the one-off load estimate and the dual
   bound recomputed every 10 phases — are read-only over the
   lengths. On small instances they fan out one Dijkstra per source
   group across domains; each group produces a self-contained partial (a
   partial alpha sum, or a packed list of load contributions) and the
   partials are reduced sequentially in group order, so the result is
   bit-identical for any domain count, including the sequential gated
   path. On large instances the group loop runs sequentially, and so
   does each delta-stepping traversal. *)

type result = {
  lower : float; (* certified achievable throughput *)
  upper : float; (* certified upper bound *)
  flow : float array; (* feasible per-arc flow achieving [lower] *)
  lengths : float array; (* dual certificate: upper = D(l)/alpha(l) *)
  phases : int;
}

type workhorse = Auto | Heap_dijkstra | Delta_stepping

(* Arc count at which [Auto] switches the per-source traversals from
   heap Dijkstra to delta-stepping. Chosen so every pre-scale
   catalog/bench instance stays on the heap path (bit-identical
   trajectories to the pre-Bigarray solver) while the scale workloads
   get the bucketed traversal. *)
let delta_threshold_arcs = Sssp.auto_delta_arcs

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

(* ---- Scratch-state pool for the parallel certification passes. ----

   Borrow one SSSP state per concurrently running domain; a solve
   allocates at most [domain_count] states however many groups it
   certifies, and the sequential path reuses a single state. *)

type pool = { mutex : Mutex.t; mutable free : Sssp.state list; nodes : int }

let pool_create nodes = { mutex = Mutex.create (); free = []; nodes }

let with_state pool f =
  let borrowed =
    Mutex.protect pool.mutex (fun () ->
        match pool.free with
        | st :: rest ->
          pool.free <- rest;
          Some st
        | [] -> None)
  in
  let st =
    match borrowed with
    | Some st -> st
    | None -> Sssp.create_state pool.nodes
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect pool.mutex (fun () -> pool.free <- st :: pool.free))
    (fun () -> f st)

(* Packed per-group load contributions, built by walking [parent_arc]
   (no per-commodity path list). Grown by doubling. *)
type contrib = {
  mutable c_arcs : int array;
  mutable c_amts : float array;
  mutable c_len : int;
}

let contrib_push c a x =
  let cap = Array.length c.c_arcs in
  if c.c_len = cap then begin
    let arcs = Array.make (2 * cap) 0 and amts = Array.make (2 * cap) 0.0 in
    Array.blit c.c_arcs 0 arcs 0 cap;
    Array.blit c.c_amts 0 amts 0 cap;
    c.c_arcs <- arcs;
    c.c_amts <- amts
  end;
  c.c_arcs.(c.c_len) <- a;
  c.c_amts.(c.c_len) <- x;
  c.c_len <- c.c_len + 1

(* Load of routing every commodity once along hop-shortest paths,
   ignoring capacities; {!Mwu.create} pre-scales demands by it so that a
   phase routes roughly "one unit of congestion" and the phase count
   stays O(log m / eps^2) regardless of the demand scale. Hop-shortest trees come from
   Dial buckets (unit lengths by definition). On small instances the
   source groups fan out across domains and the per-group contribution
   lists are applied to the load array sequentially in group order
   (deterministic for any domain count); large instances run the groups
   sequentially. *)
let load_estimate ~big g cs =
  let n = Graph.num_nodes g in
  let num_arcs = Graph.num_arcs g in
  let groups = Commodity.group_by_source ~n cs in
  let pool = pool_create n in
  let run (s, idxs) =
    with_state pool @@ fun st ->
    Metrics.incr m_dijkstra;
    Sssp.dial g ~src:s st;
    let c = { c_arcs = Array.make 64 0; c_amts = Array.make 64 0.0; c_len = 0 } in
    Array.iter
      (fun j ->
        let d = cs.(j).Commodity.demand in
        (* Walk the tree path dst -> src; unreached leaves nothing. *)
        let v = ref cs.(j).Commodity.dst in
        let a = ref (Sssp.parent_arc st !v) in
        while !a >= 0 do
          contrib_push c !a d;
          v := Graph.arc_src g !a;
          a := Sssp.parent_arc st !v
        done)
      idxs;
    c
  in
  let parts = if big then Array.map run groups else Parallel.map_array run groups in
  let load = Graph.make_floats num_arcs in
  A1.fill load 0.0;
  Array.iter
    (fun c ->
      for i = 0 to c.c_len - 1 do
        let a = c.c_arcs.(i) in
        A1.set load a (A1.get load a +. c.c_amts.(i))
      done)
    parts;
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
    | Auto -> num_arcs >= delta_threshold_arcs
    | Heap_dijkstra -> false
    | Delta_stepping -> true
  in
  let k = Array.length cs in
  Metrics.incr m_solves;
  Metrics.time t_solve @@ fun () ->
  Trace.span "fleischer.solve"
    ~args:[ ("commodities", Tb_obs.Json.Int k); ("arcs", Tb_obs.Json.Int num_arcs) ]
  @@ fun () ->
  let t =
    Mwu.create g ~eps ~load:(load_estimate ~big:use_delta g cs) ~warm_lengths cs
  in
  let len = t.Mwu.len and c = t.Mwu.c in
  let groups = Commodity.group_by_source ~n cs in
  (* Single-destination sources (matching TMs) afford an early-exit
     SSSP. The options are built once per solve, not once per tree. *)
  let targets =
    Array.map
      (fun (_, idxs) ->
        if Array.length idxs = 1 then Some cs.(idxs.(0)).Commodity.dst else None)
      groups
  in
  let st = Sssp.create_state n in
  let pool = pool_create n in
  (* Scratch: current tree distance per destination, per active source. *)
  let dist_at_tree = Graph.make_floats n in
  A1.fill dist_at_tree infinity;
  (* Scratch: the arcs of the tree path being routed, dst to src. *)
  let path = Array.make n 0 in
  let sssp_tree ?target ~src st =
    Metrics.incr m_dijkstra;
    if use_delta then
      Sssp.delta_stepping ?target ~max_len:c.Mwu.max_len g ~len ~src st
    else Sssp.dijkstra ?target g ~len ~src st
  in
  (* alpha(l) under the *current* lengths, for the dual bound. The sum
     runs one SSSP per source group; each group's partial is summed
     within the group in commodity order and the partials are folded in
     group order, so the bound is bit-identical regardless of the
     domain count (the lengths are read-only during the pass). Each
     group's destinations and demands are gathered once per solve, so
     the per-tree sum is one [Sssp.weighted_distance_sum] call rather
     than a boxed [Sssp.distance] per commodity. A single-destination
     group's tree stops once that destination is settled: its distance
     is final then, so alpha is unchanged. *)
  let dual_groups =
    Array.mapi
      (fun gi (s, idxs) ->
        ( s,
          targets.(gi),
          Array.map (fun j -> cs.(j).Commodity.dst) idxs,
          Array.map (fun j -> t.Mwu.demand.(j)) idxs ))
      groups
  in
  let alpha () =
    let run (s, target, targets, weights) =
      with_state pool @@ fun st ->
      sssp_tree ?target ~src:s st;
      Sssp.weighted_distance_sum st ~targets ~weights
    in
    let parts =
      if use_delta then Array.map run dual_groups
      else Parallel.map_array run dual_groups
    in
    Array.fold_left ( +. ) 0.0 parts
  in
  let dual_check () =
    Mwu.dual_check t ~alpha:(alpha ()) on_check;
    Trace.counter "dijkstra" [ ("runs", float_of_int (Metrics.count m_dijkstra)) ]
  in
  let stall_window = 120 in
  let window_start = ref 0 in
  let window_gap = ref infinity in
  (* Rebuild the tree of source [s] and record its distances, against
     which the phase loop measures staleness. *)
  let refresh s target =
    sssp_tree ?target ~src:s st;
    match target with
    | Some t -> A1.set dist_at_tree t (Sssp.distance st t)
    | None -> Sssp.distances_into st dist_at_tree
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
      let target = targets.(gi) in
      refresh s target;
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
            cur_len := !cur_len +. A1.unsafe_get len a;
            path.(!hops) <- a;
            incr hops;
            v := Graph.arc_src g a
          done;
          if !cur_len > ((1.0 +. c.Mwu.eps) *. A1.get dist_at_tree dst) +. 1e-300
          then refresh s target
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
    lengths = Array.init num_arcs (fun a -> A1.get t.Mwu.best_len a);
    phases = t.Mwu.phases;
  }
