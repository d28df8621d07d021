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

   Scale. All per-arc state (lengths, flows, snapshots) and per-node
   state (tree distances) lives in Bigarrays — flat, unscanned by the
   GC, shared across domains without copying — and the shortest-path
   workhorse is selected by instance size: heap Dijkstra below
   [delta_threshold_arcs] arcs (where its constants win), delta-stepping
   with domain-parallel candidate generation above it (see
   {!Tb_graph.Sssp}). The one-off congestion estimate uses Dial buckets
   (its lengths are all-ones by construction). The longest current arc
   length is tracked incrementally so delta-stepping never rescans the
   length array to size its buckets.

   Parallelism: the route phases are inherently sequential (every push
   updates the lengths the next push routes against), but the two
   certification passes — the one-off congestion estimate and the dual
   bound recomputed every [check_every] phases — are read-only over the
   lengths. On small instances they fan out one Dijkstra per source
   group across domains; each group produces a self-contained partial (a
   partial alpha sum, or a packed list of load contributions) and the
   partials are reduced sequentially in group order, so the result is
   bit-identical for any domain count, including the sequential gated
   path. On large instances the group loop runs sequentially and the
   parallelism moves *inside* each delta-stepping traversal, whose
   frozen-scan schedule gives the same any-domain-count guarantee. *)

type result = {
  lower : float; (* certified achievable throughput *)
  upper : float; (* certified upper bound *)
  flow : float array; (* feasible per-arc flow achieving [lower] *)
  lengths : float array; (* dual certificate: upper = D(l)/alpha(l) *)
  phases : int;
}

type workhorse = Auto | Heap_dijkstra | Delta_stepping

(* Arc count at which [Auto] switches the per-source traversals from
   heap Dijkstra to parallel delta-stepping. Chosen so every pre-scale
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

(* Step size: larger steps converge in fewer phases and, with the
   certified stopping rule, do not cost accuracy until they approach the
   gap floor; 0.25 measured fastest across the experiment mix. *)
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
   ignoring capacities; used to pre-scale demands so that a phase routes
   roughly "one unit of congestion" and the phase count stays O(log m /
   eps^2) regardless of the demand scale. Hop-shortest trees come from
   Dial buckets (unit lengths by definition). On small instances the
   source groups fan out across domains and the per-group contribution
   lists are applied to the load array sequentially in group order
   (deterministic for any domain count); large instances run the groups
   sequentially. *)
let congestion_estimate ~big g cs =
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
  let cap = Graph.ba_arc_caps g in
  let worst = ref 0.0 in
  for a = 0 to num_arcs - 1 do
    let r = A1.get load a /. A1.get cap a in
    if r > !worst then worst := r
  done;
  !worst

exception Unreachable_commodity of Commodity.t

let check_reachability g cs =
  let reach = Hashtbl.create 16 in
  Array.iter
    (fun c ->
      let d =
        match Hashtbl.find_opt reach c.Commodity.src with
        | Some d -> d
        | None ->
          let d = Traversal.bfs_dist g c.Commodity.src in
          Hashtbl.add reach c.Commodity.src d;
          d
      in
      if d.(c.Commodity.dst) < 0 then raise (Unreachable_commodity c))
    cs

(* A warm length function is usable iff it covers every arc with a
   strictly positive finite value: both certified bounds hold for ANY
   positive lengths (the primal counts completed phases, the dual
   D(l)/alpha(l) is LP weak duality), so a warm start can only change
   how fast the bracket closes, never whether it is valid. *)
let warm_usable num_arcs = function
  | None -> None
  | Some w ->
    if
      Array.length w = num_arcs
      && Array.for_all (fun l -> Float.is_finite l && l > 0.0) w
    then Some w
    else None

let solve ?deadline ?(eps = default_eps) ?(tol = default_tol)
    ?(max_phases = 30_000) ?(check_every = 10)
    ?(on_check = Convergence.tracing "fleischer") ?(sssp = Auto) ?warm_lengths
    g commodities =
  (* A deadline is just another observer of the periodic checks: it
     raises Timed_out at the next bound evaluation after expiry. *)
  let on_check =
    match deadline with
    | None -> on_check
    | Some d -> Convergence.combine (Tb_obs.Deadline.sink d) on_check
  in
  (* The step size adapts downward when the duality gap stalls: a large
     step closes most of the gap cheaply, a smaller one finishes the
     job. Both bounds are certified for any step schedule (the primal
     counts completed phases; the dual holds for any lengths), so
     adaptation cannot compromise correctness. *)
  let eps = ref eps in
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
  (* Pre-scale demands so one phase ~ unit congestion. *)
  let sigma =
    let est = congestion_estimate ~big:use_delta g cs in
    if est > 0.0 then 1.0 /. est else 1.0
  in
  let demand = Array.map (fun c -> c.Commodity.demand *. sigma) cs in
  let cap = Graph.ba_arc_caps g in
  let len = Graph.make_floats num_arcs in
  (* Longest current arc length, maintained incrementally: lengths only
     grow between renormalizations, so a max-tracking write per push
     keeps delta-stepping's bucket sizing O(1) per traversal. Held in an
     unboxed cell: closures capture it, and a captured [float ref]
     boxes on every write. *)
  let max_len = [| 0.0 |] in
  for a = 0 to num_arcs - 1 do
    let l = 1.0 /. A1.get cap a in
    A1.set len a l;
    if l > max_len.(0) then max_len.(0) <- l
  done;
  (match warm_usable num_arcs warm_lengths with
  | None -> ()
  | Some w ->
    (* Rescale so the largest warm length is 1.0: the dual bound is
       scale-invariant and this keeps lengths far from the 1e150
       renormalization ceiling regardless of what the caller saved. *)
    let wmax = Array.fold_left Float.max 0.0 w in
    max_len.(0) <- 0.0;
    for a = 0 to num_arcs - 1 do
      let l = w.(a) /. wmax in
      A1.set len a l;
      if l > max_len.(0) then max_len.(0) <- l
    done);
  (* Snapshot of the lengths that achieved [best_upper]: returned as the
     dual certificate, so a checker can re-derive the upper bound from
     the result alone (D(l)/alpha(l) is scale-invariant in [l], hence
     insensitive to renormalization and demand pre-scaling). *)
  let best_len = Graph.make_floats num_arcs in
  A1.blit len best_len;
  let flow = Graph.make_floats num_arcs in
  A1.fill flow 0.0;
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
  let sssp_tree ?target ~src st =
    Metrics.incr m_dijkstra;
    if use_delta then
      Sssp.delta_stepping ?target ~max_len:max_len.(0) ~parallel:true g ~len ~src st
    else Sssp.dijkstra ?target g ~len ~src st
  in
  let renormalize () =
    let m = ref 0.0 in
    for a = 0 to num_arcs - 1 do
      let l = A1.unsafe_get len a in
      if l > !m then m := l
    done;
    if !m > 1e150 then begin
      let inv = 1.0 /. !m in
      let m' = ref 0.0 in
      for a = 0 to num_arcs - 1 do
        let l = A1.unsafe_get len a *. inv in
        A1.unsafe_set len a l;
        if l > !m' then m' := l
      done;
      max_len.(0) <- !m'
    end
  in
  let congestion () =
    let w = ref 0.0 in
    for a = 0 to num_arcs - 1 do
      let r = A1.unsafe_get flow a /. A1.unsafe_get cap a in
      if r > !w then w := r
    done;
    !w
  in
  (* Dual bound D(l)/alpha(l) under the *current* lengths. The alpha
     sum runs one SSSP per source group; each group's partial is summed
     within the group in commodity order and the partials are folded in
     group order, so the bound is bit-identical regardless of the
     domain count (the lengths are read-only during the pass). Each
     group's destinations and demands are gathered once per solve, so
     the per-tree sum is one [Sssp.weighted_distance_sum] call rather
     than a boxed [Sssp.distance] per commodity. *)
  let dual_groups =
    Array.map
      (fun (s, idxs) ->
        ( s,
          Array.map (fun j -> cs.(j).Commodity.dst) idxs,
          Array.map (fun j -> demand.(j)) idxs ))
      groups
  in
  let dual_bound () =
    let dsum = ref 0.0 in
    for a = 0 to num_arcs - 1 do
      dsum := !dsum +. (A1.unsafe_get len a *. A1.unsafe_get cap a)
    done;
    let run (s, targets, weights) =
      with_state pool @@ fun st ->
      sssp_tree ~src:s st;
      Sssp.weighted_distance_sum st ~targets ~weights
    in
    let parts =
      if use_delta then Array.map run dual_groups
      else Parallel.map_array run dual_groups
    in
    let alpha = Array.fold_left ( +. ) 0.0 parts in
    if alpha > 0.0 then !dsum /. alpha else infinity
  in
  let phases = ref 0 in
  let best_lower = ref 0.0 in
  let best_upper = ref infinity in
  let stall_window = 120 in
  let window_start = ref 0 in
  let window_gap = ref infinity in
  let flow_snapshot = Graph.make_floats num_arcs in
  A1.fill flow_snapshot 0.0;
  let snapshot_scale = ref 0.0 in
  let stop = ref false in
  (* Rebuild the tree of source [s] and record its distances, against
     which the phase loop measures staleness. *)
  let refresh s target =
    sssp_tree ?target ~src:s st;
    match target with
    | Some t -> A1.set dist_at_tree t (Sssp.distance st t)
    | None -> Sssp.distances_into st dist_at_tree
  in
  while not !stop do
    (* ---- One phase: route every commodity's full demand. ----

       Each commodity's demand is routed along the current tree of its
       source: walk parent arcs to measure the path's current length and
       bottleneck (no allocation), then either push along it or, when the
       path has grown stale by more than a (1 + eps) factor, refresh the
       tree and retry. Plain loops over local refs: no float crosses a
       call, so nothing here is boxed. *)
    for gi = 0 to Array.length groups - 1 do
      let s, idxs = groups.(gi) in
      let target = targets.(gi) in
      refresh s target;
      for i = 0 to Array.length idxs - 1 do
        let j = idxs.(i) in
        let dst = cs.(j).Commodity.dst in
        let remaining = ref demand.(j) in
        while !remaining > 1e-15 do
          let cur_len = ref 0.0 and bottleneck = ref infinity in
          let v = ref dst in
          while !v <> s do
            let a = Sssp.parent_arc st !v in
            if a < 0 then failwith "Fleischer: lost reachability";
            cur_len := !cur_len +. A1.unsafe_get len a;
            let c = A1.unsafe_get cap a in
            if c < !bottleneck then bottleneck := c;
            v := Graph.arc_src g a
          done;
          if !cur_len > ((1.0 +. !eps) *. A1.get dist_at_tree dst) +. 1e-300 then
            refresh s target
          else begin
            let f = if !remaining <= !bottleneck then !remaining else !bottleneck in
            let v = ref dst in
            while !v <> s do
              let a = Sssp.parent_arc st !v in
              A1.unsafe_set flow a (A1.unsafe_get flow a +. f);
              let l =
                A1.unsafe_get len a *. (1.0 +. (!eps *. f /. A1.unsafe_get cap a))
              in
              A1.unsafe_set len a l;
              if l > max_len.(0) then max_len.(0) <- l;
              v := Graph.arc_src g a
            done;
            remaining := !remaining -. f
          end
        done
      done
    done;
    incr phases;
    Metrics.incr m_phases;
    renormalize ();
    (* ---- Bounds. ---- *)
    let cong = congestion () in
    if cong > 0.0 then begin
      let lower = float_of_int !phases /. cong in
      if lower > !best_lower then begin
        best_lower := lower;
        A1.blit flow flow_snapshot;
        snapshot_scale := 1.0 /. cong
      end
    end;
    if !phases mod check_every = 0 || !phases = 1 then begin
      let ub = dual_bound () in
      if ub < !best_upper then begin
        best_upper := ub;
        A1.blit len best_len
      end;
      Convergence.check on_check ~phase:!phases ~lower:!best_lower
        ~upper:!best_upper ~eps:!eps;
      Trace.counter "dijkstra"
        [ ("runs", float_of_int (Metrics.count m_dijkstra)) ];
      (* Stall detection: if the gap improved by < 2% relatively since
         the window started, halve the step. *)
      let gap = !best_upper /. max !best_lower 1e-300 in
      if !phases - !window_start >= stall_window then begin
        if gap > !window_gap /. 1.02 && !eps > 0.021 then
          eps := max 0.02 (!eps /. 2.0);
        window_start := !phases;
        window_gap := gap
      end
      else if gap < !window_gap /. 1.02 then begin
        window_start := !phases;
        window_gap := gap
      end
    end;
    if
      !best_upper < infinity
      && !best_lower > 0.0
      && !best_upper /. !best_lower <= 1.0 +. tol
    then stop := true
    else if !phases >= max_phases then begin
      Logs.warn (fun m ->
          m "Fleischer: phase cap %d hit (gap %.3f); result is still bracketed"
            max_phases
            ((!best_upper /. !best_lower) -. 1.0));
      stop := true
    end
  done;
  (* Final tight dual check. *)
  let ub = dual_bound () in
  if ub < !best_upper then begin
    best_upper := ub;
    A1.blit len best_len
  end;
  Convergence.check on_check ~phase:!phases ~lower:!best_lower
    ~upper:!best_upper ~eps:!eps;
  Trace.counter "dijkstra"
    [ ("runs", float_of_int (Metrics.count m_dijkstra)) ];
  Metrics.observe h_phases (float_of_int !phases);
  (* Undo the demand pre-scaling: lambda(d) = lambda(d') * sigma. *)
  let lower = !best_lower *. sigma and upper = !best_upper *. sigma in
  Metrics.set g_lower lower;
  Metrics.set g_upper upper;
  {
    lower;
    upper;
    flow = Array.init num_arcs (fun a -> A1.get flow_snapshot a *. !snapshot_scale);
    lengths = Array.init num_arcs (fun a -> A1.get best_len a);
    phases = !phases;
  }
