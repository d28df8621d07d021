module Graph = Tb_graph.Graph
module Sssp = Tb_graph.Sssp
module Commodity = Tb_flow.Commodity
module Fleischer = Tb_flow.Fleischer
module Exact = Tb_flow.Exact
module Mcf = Tb_flow.Mcf
module Simplex = Tb_lp.Simplex
module Cert = Tb_cert.Cert
module Deadline = Tb_obs.Deadline
module Convergence = Tb_obs.Convergence
module Metrics = Tb_obs.Metrics
module Json = Tb_obs.Json

(* Fault-tolerant throughput solving: the graceful degradation chain.

   Every cell of a long sweep must produce *a* certified answer even
   when a solver misbehaves, and every answer must say how it was
   computed. The chain runs up to three rungs in order:

     exact LP  ->  Fleischer FPTAS (with retries)  ->  cut/routing bounds

   and each rung's attempt is wrapped in the same protections: a
   wall-clock deadline threaded through the solver's periodic hook, NaN/
   Inf guards on every returned float, and deterministic fault injection
   (for tests). A recoverable failure — timeout, poisoned number,
   simplex cycling, injected fault — degrades to the next rung; FPTAS
   attempts additionally retry with a geometrically relaxed certified
   tolerance first, since a looser certificate often fits a budget a
   tight one blew.

   The last rung never fails: routing every demand on hop-shortest
   paths certifies throughput >= 1/congestion (0 when some demand is
   disconnected, which *is* the true throughput), and the sparse-cut
   estimator suite plus the volumetric capacity bound certify an upper
   bound — a wide but honest bracket. *)

type rung = Exact_lp | Fptas | Cut_bound

let rung_name = function
  | Exact_lp -> "exact"
  | Fptas -> "fptas"
  | Cut_bound -> "cuts"

type attempt = { a_rung : rung; a_tol : float; error : string }

type outcome = {
  estimate : Mcf.estimate;
  rung : rung; (* the rung that produced [estimate] *)
  attempts : attempt list; (* failed attempts, oldest first *)
  dual_lengths : float array option;
      (* the FPTAS dual certificate lengths when that rung produced the
         estimate: the reusable warm-start state for neighboring cells *)
}

type policy = {
  budget_ms : float; (* per-attempt wall-clock budget *)
  retries : int; (* extra FPTAS attempts after the first *)
  tol : float; (* certified gap of the first FPTAS attempt *)
  relax : float; (* tol multiplier per retry *)
  eps : float; (* FPTAS step size *)
  exact_threshold : int; (* LP-variable budget for the exact rung *)
  rungs : rung list; (* chain order; default tries all three *)
}

let default_policy =
  {
    budget_ms = infinity;
    retries = 2;
    tol = 0.04;
    relax = 2.0;
    eps = Fleischer.default_eps;
    exact_threshold = Mcf.auto_exact_threshold;
    rungs = [ Exact_lp; Fptas; Cut_bound ];
  }

(* The one place a solver selection becomes a chain: [None] runs every
   rung; a forced rung runs alone, except that a forced FPTAS keeps the
   cut rung behind it so a failed solve degrades instead of raising. A
   forced exact rung lifts the LP-size ceiling to the simplex's own. *)
let policy_of ?(eps = default_policy.eps) ?(tol = default_policy.tol)
    ?(budget_ms = default_policy.budget_ms) forced =
  let rungs, exact_threshold =
    match forced with
    | None -> (default_policy.rungs, default_policy.exact_threshold)
    | Some Exact_lp -> ([ Exact_lp ], Exact.max_lp_variables)
    | Some Fptas -> ([ Fptas; Cut_bound ], default_policy.exact_threshold)
    | Some Cut_bound -> ([ Cut_bound ], default_policy.exact_threshold)
  in
  { default_policy with eps; tol; budget_ms; rungs; exact_threshold }

exception Exhausted of attempt list
(* Only reachable with a custom [rungs] list omitting [Cut_bound]. *)

exception Warm_rejected of string
(* A warm-started solve produced a bracket the certificate checkers
   refused. Raised (and absorbed) inside [solve] only: the attempt is
   recorded and the chain falls back to a cold start, so a stale warm
   hint can cost time but never ship an unchecked bracket. *)

let m_solves = Metrics.counter "harness.solves"
let m_retries = Metrics.counter "harness.retries"
let m_degradations = Metrics.counter "harness.degradations"
let m_faults = Metrics.counter "harness.faults_injected"
let m_warm_attempts = Metrics.counter "harness.warm_attempts"
let m_warm_hits = Metrics.counter "harness.warm_hits"
let m_warm_rejects = Metrics.counter "harness.warm_rejects"

(* Failures the chain absorbs; anything else (Out_of_memory, assert
   failures in our own code, ...) propagates. *)
let recoverable = function
  | Deadline.Timed_out _ | Fault.Injected _ | Guard.Invalid_number _
  | Simplex.Cycling _ | Failure _
  | Fleischer.Unreachable_commodity _ | Warm_rejected _ ->
    true
  | _ -> false

let describe_error e =
  match (Deadline.describe e, Guard.describe e) with
  | Some s, _ | _, Some s -> s
  | None, None -> (
    match e with
    | Fault.Injected k -> "injected " ^ Fault.kind_name k
    | Simplex.Cycling n ->
      Printf.sprintf "simplex cycling: no progress after %d pivots" n
    | Fleischer.Unreachable_commodity c ->
      Fmt.str "unreachable commodity %a" Commodity.pp c
    | Warm_rejected msg -> "warm start rejected: " ^ msg
    | Failure msg -> msg
    | e -> Printexc.to_string e)

(* ---- Rung 3: LP-free certified bracket. ---- *)

(* Route every demand along a hop-shortest path; the worst congestion C
   certifies feasibility of the TM scaled by 1/C, i.e. throughput >=
   1/C. A disconnected demand makes the true throughput 0. *)
let shortest_path_lower g cs =
  let n = Graph.num_nodes g in
  let num_arcs = Graph.num_arcs g in
  let load = Array.make num_arcs 0.0 in
  let st = Sssp.create_state n in
  let groups = Commodity.group_by_source ~n cs in
  let unit_len = Graph.make_floats num_arcs in
  Bigarray.Array1.fill unit_len 1.0;
  let unreachable = ref false in
  Array.iter
    (fun (s, idxs) ->
      Sssp.dijkstra g ~len:unit_len ~src:s st;
      Array.iter
        (fun j ->
          let c = cs.(j) in
          if not (Sssp.reached st c.Commodity.dst) then unreachable := true
          else begin
            (* Walk the tree path dst -> src without allocating. *)
            let v = ref c.Commodity.dst in
            let a = ref (Sssp.parent_arc st !v) in
            while !a >= 0 do
              load.(!a) <- load.(!a) +. c.Commodity.demand;
              v := Graph.arc_src g !a;
              a := Sssp.parent_arc st !v
            done
          end)
        idxs)
    groups;
  if !unreachable then 0.0
  else begin
    let worst = ref 0.0 in
    for a = 0 to num_arcs - 1 do
      let r = load.(a) /. Graph.arc_cap g a in
      if r > !worst then worst := r
    done;
    if !worst > 0.0 then 1.0 /. !worst else infinity
  end

let cut_estimate g cs =
  let lower = shortest_path_lower g cs in
  let upper =
    if lower = 0.0 then 0.0 (* disconnected demand: throughput is 0 *)
    else begin
      let flows =
        Array.map
          (fun c -> (c.Commodity.src, c.Commodity.dst, c.Commodity.demand))
          cs
      in
      let cut = (Tb_cuts.Estimator.run g flows).Tb_cuts.Estimator.sparsity in
      (* Volumetric fallback (each routed unit crosses >= 1 arc) keeps
         the upper bound finite even when no estimator finds a cut with
         crossing demand. *)
      let volumetric = Graph.total_capacity g /. Commodity.total_demand cs in
      min cut volumetric
    end
  in
  let lower = if Float.is_finite lower then lower else upper in
  { Mcf.value = 0.5 *. (lower +. upper); lower; upper }

(* ---- The chain. ---- *)

let solve ?(policy = default_policy) ?(fault = Fault.none) ?deadline
    ?warm_lengths g commodities =
  let cs = Commodity.normalize commodities in
  if Array.length cs = 0 then
    invalid_arg "Solve.solve: no non-trivial commodities";
  Metrics.incr m_solves;
  (* Each attempt runs under the tighter of the per-attempt policy
     budget and whatever is left of the overall deadline; an exhausted
     overall deadline degrades the chain exactly like a per-attempt
     timeout (the cut-bound rung still always completes). *)
  let attempt_deadline () =
    let overall =
      match deadline with
      | Some d -> Deadline.remaining_ms d
      | None -> infinity
    in
    Deadline.start ~budget_ms:(Float.min policy.budget_ms overall)
  in
  let attempts = ref [] in
  let record_failure rung tol e =
    attempts := { a_rung = rung; a_tol = tol; error = describe_error e }
                :: !attempts;
    Logs.info (fun m ->
        m "harness: %s rung failed: %s" (rung_name rung) (describe_error e))
  in
  (* Draw at most one fault per attempt: timeouts and exceptions fire
     before the solver runs; NaN poisons the result afterwards, so it
     exercises the guard-rail path for real. *)
  let inject () =
    match Fault.draw fault with
    | None -> Fun.id
    | Some k -> (
      Metrics.incr m_faults;
      match k with
      | Fault.Timeout ->
        raise
          (Deadline.Timed_out { elapsed_ms = 0.0; budget_ms = policy.budget_ms })
      | Fault.Exception -> raise (Fault.Injected Fault.Exception)
      | (Fault.Kill | Fault.Stall | Fault.Truncate) as k ->
        (* Process-level kinds are enacted from outside by the pool
           supervisor; an injector carrying them into an in-process
           solve degenerates to a simulated crash. *)
        raise (Fault.Injected k)
      | Fault.Nan ->
        fun (e : Mcf.estimate) -> { e with Mcf.value = Float.nan })
  in
  let finish ?dual_lengths rung (e : Mcf.estimate) =
    Guard.finite "throughput value" e.Mcf.value;
    Guard.bracket (rung_name rung) ~lower:e.Mcf.lower ~upper:e.Mcf.upper;
    { estimate = e; rung; attempts = List.rev !attempts; dual_lengths }
  in
  let exact_attempt () =
    let poison = inject () in
    let v, flow = Exact.solve ~deadline:(attempt_deadline ()) g cs in
    Guard.finite_array "exact flow" flow;
    poison { Mcf.value = v; lower = v; upper = v }
  in
  let fptas_attempt ?warm tol =
    let poison = inject () in
    let r =
      Fleischer.solve ~deadline:(attempt_deadline ()) ~eps:policy.eps ~tol
        ?warm_lengths:warm
        ~on_check:(Convergence.tracing "fleischer") g cs
    in
    Guard.finite_array "fleischer flow" r.Fleischer.flow;
    ( r,
      poison
        {
          Mcf.value = Fleischer.value r;
          lower = r.Fleischer.lower;
          upper = r.Fleischer.upper;
        } )
  in
  let rec try_rungs = function
    | [] -> raise (Exhausted (List.rev !attempts))
    | rung :: rest -> (
      let degrade tol e =
        record_failure rung tol e;
        if rest <> [] then Metrics.incr m_degradations;
        try_rungs rest
      in
      match rung with
      | Exact_lp ->
        if Exact.variable_budget g cs > policy.exact_threshold then
          try_rungs rest
        else ( try finish Exact_lp (exact_attempt ())
               with e when recoverable e -> degrade 0.0 e)
      | Fptas ->
        let rec attempt i tol =
          try
            let r, e = fptas_attempt tol in
            finish ~dual_lengths:r.Fleischer.lengths Fptas e
          with e when recoverable e ->
            if i < policy.retries then begin
              record_failure Fptas tol e;
              Metrics.incr m_retries;
              attempt (i + 1) (tol *. policy.relax)
            end
            else degrade tol e
        in
        attempt 0 policy.tol
      | Cut_bound -> finish Cut_bound (cut_estimate g cs))
  in
  (* Warm pre-attempt: one warm-started FPTAS solve ahead of the cold
     chain. The math says a warm start cannot break validity (both
     bounds hold for any positive lengths); the independent certificate
     checkers enforce it anyway — a red certificate, like any
     recoverable failure, is recorded as a failed attempt and the
     chain falls back to a cold start. A stale warm hint can cost
     time, never ship an unchecked bracket. *)
  let warm_outcome =
    match warm_lengths with
    | Some w when List.mem Fptas policy.rungs -> (
      Metrics.incr m_warm_attempts;
      try
        let r, e = fptas_attempt ~warm:w policy.tol in
        let gate name = function
          | Ok () -> ()
          | Error msg -> raise (Warm_rejected (name ^ ": " ^ msg))
        in
        gate "primal"
          (Cert.primal_feasible g cs ~throughput:e.Mcf.lower
             ~flow:r.Fleischer.flow);
        gate "dual"
          (Cert.dual_bound_valid g cs ~lengths:r.Fleischer.lengths
             ~upper:e.Mcf.upper);
        gate "order"
          (Cert.bounds_ordered ~lower:e.Mcf.lower ~value:e.Mcf.value
             ~upper:e.Mcf.upper ());
        Metrics.incr m_warm_hits;
        Some (finish ~dual_lengths:r.Fleischer.lengths Fptas e)
      with e when recoverable e ->
        (match e with
        | Warm_rejected _ -> Metrics.incr m_warm_rejects
        | _ -> ());
        record_failure Fptas policy.tol e;
        None)
    | _ -> None
  in
  match warm_outcome with Some o -> o | None -> try_rungs policy.rungs

(* [?warm] threads a {!Warm} cache under a caller-chosen key: the
   entry, transported onto this graph, warm-starts the chain, and the
   outcome's dual lengths replace it for the next neighboring solve. *)
let throughput ?policy ?fault ?deadline ?warm (topo : Tb_topo.Topology.t) tm =
  let g = topo.Tb_topo.Topology.graph in
  let warm_lengths =
    Option.bind warm (fun (cache, key) ->
        Option.bind (Warm.find cache key) (fun e -> Warm.lengths_for e g))
  in
  let o =
    solve ?policy ?fault ?deadline ?warm_lengths g (Tb_tm.Tm.commodities tm)
  in
  (match (warm, o.dual_lengths) with
  | Some (cache, key), Some lengths ->
    Warm.store cache key (Warm.entry_of_lengths g lengths)
  | _ -> ());
  o

(* ---- Provenance. ---- *)

let rel_gap (e : Mcf.estimate) =
  if e.Mcf.lower > 0.0 then (e.Mcf.upper /. e.Mcf.lower) -. 1.0
  else if e.Mcf.upper <= 0.0 then 0.0
  else infinity

let outcome_to_json o =
  Json.Obj
    [
      ("value", Json.Float o.estimate.Mcf.value);
      ("lower", Json.Float o.estimate.Mcf.lower);
      ("upper", Json.Float o.estimate.Mcf.upper);
      ("rung", Json.String (rung_name o.rung));
      ("gap", Json.Float (rel_gap o.estimate));
      ( "attempts",
        Json.List
          (List.map
             (fun a ->
               Json.Obj
                 [
                   ("rung", Json.String (rung_name a.a_rung));
                   ("tol", Json.Float a.a_tol);
                   ("error", Json.String a.error);
                 ])
             o.attempts) );
    ]
