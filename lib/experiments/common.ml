module Rng = Tb_prelude.Rng
module Table = Tb_prelude.Table
module Topology = Tb_topo.Topology
module Catalog = Tb_topo.Catalog
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf

(* Shared experiment configuration. Every experiment is deterministic
   given [seed]; [quick] shrinks sweeps for smoke runs and [iterations]
   controls how many same-equipment random graphs back each relative-
   throughput estimate (the paper used 10; the default here trades that
   for wall-clock, the confidence intervals stay narrow at these
   sizes). *)

type config = {
  seed : int;
  iterations : int;
  quick : bool;
  eps : float; (* FPTAS step size *)
  tol : float; (* certified relative gap, before [tol_for] loosens it *)
}

let default =
  {
    seed = 42;
    (* The paper averages 10 random graphs per point; two keep the full
       bench tractable on one core (confidence intervals are printed and
       stay narrow at these sizes). *)
    iterations = 2;
    quick = false;
    eps = 0.4;
    tol = 0.04;
  }

let quick = { default with quick = true; iterations = 2; tol = 0.06 }

let rng cfg salt = Rng.split (Rng.make cfg.seed) salt

(* Larger instances get a looser certified gap: the relative-throughput
   ratios the figures report tolerate it, and it keeps the full bench
   tractable on one core. *)
let tol_for cfg topo =
  let n = Tb_graph.Graph.num_nodes topo.Topology.graph in
  if n > 350 then max cfg.tol 0.09
  else if n > 200 then max cfg.tol 0.07
  else cfg.tol

let solver_for cfg topo = Mcf.Approx { eps = cfg.eps; tol = tol_for cfg topo }

(* One process-wide service instance: every experiment throughput goes
   through the Tb_service front door, so identical cells recomputed by
   different figures (baselines, shared sweep points) are solved once
   and replayed from the content-addressed cache. [handle] is
   mutex-protected, so calls from [parallel_map] domains are safe. *)
let service = lazy (Tb_service.Service.create ~capacity:512 ())

let throughput cfg topo tm =
  let req =
    Tb_service.Request.of_instance ~solver:Tb_service.Request.Fptas
      ~eps:cfg.eps ~tol:(tol_for cfg topo) topo tm
  in
  let resp =
    Tb_service.Service.handle ~prebuilt:(topo, tm) (Lazy.force service) req
  in
  let r = resp.Tb_service.Service.result in
  match r.Tb_service.Result.error with
  | Some msg -> failwith msg
  | None -> r.Tb_service.Result.value

(* Fault-tolerant cell solving for sweeps: the full Tb_harness
   degradation chain (exact -> FPTAS with retries -> cut bounds) at the
   config's certified tolerance, so one hung or numerically poisoned
   solve degrades instead of killing a multi-hour run. *)
let harness_policy ?budget_ms cfg topo =
  Tb_harness.Solve.policy_of ~eps:cfg.eps ~tol:(tol_for cfg topo) ?budget_ms
    None

(* Graph-dependent TMs (LM and friends) are regenerated per random
   graph; fixed TMs (real-world placements) are evaluated verbatim. *)
let relative_gen cfg ~salt topo gen =
  Topobench.Relative.compute_gen ~solver:(solver_for cfg topo)
    ~iterations:cfg.iterations ~rng:(rng cfg salt) topo gen

let relative_fixed cfg ~salt topo tm =
  Topobench.Relative.compute_fixed ~solver:(solver_for cfg topo)
    ~iterations:cfg.iterations ~rng:(rng cfg salt) topo tm

(* Trim a sweep in quick mode: keep just the smallest and a mid-size
   instance (quick mode is a smoke run; the full sweep shows scaling). *)
let trim_sweep cfg instances =
  if not cfg.quick then instances
  else begin
    let n = List.length instances in
    List.filteri (fun i _ -> i = 0 || (n > 1 && i = n / 2)) instances
  end

(* Outer-level parallel map for experiment points. Call sites disable
   the gated inner maps (see bench/main.ml) so the cores are not
   oversubscribed. *)
let parallel_map f l =
  Array.to_list
    (Tb_prelude.Parallel.force_map_array f (Array.of_list l))

(* Same, with a progress/ETA line per completed point (stderr, so the
   stdout table stream stays diffable). For sweeps long enough that the
   user wonders whether anything is happening. *)
let parallel_map_progress ~label f l =
  let p = Tb_obs.Progress.create ~label (List.length l) in
  Array.to_list
    (Tb_prelude.Parallel.force_map_array
       (fun x ->
         let r = f x in
         Tb_obs.Progress.step p;
         r)
       (Array.of_list l))

(* ---- Per-experiment wall-clock and solver-work reporting. ---- *)

(* The solver-side counters worth attributing to an experiment; deltas
   of anything else registered also show up, these are just the ones a
   zero count should not hide. *)
type stats = {
  seconds : float;
  counters : (string * int) list; (* per-counter delta, nonzero only *)
  timers : (string * (int * float)) list;
      (* per-timer delta: (calls, total ms), nonzero only *)
}

let with_stats f =
  let before = Tb_obs.Metrics.counter_snapshot () in
  let before_t = Tb_obs.Metrics.timer_snapshot () in
  let t0 = Tb_obs.Clock.now_ns () in
  let result = f () in
  let seconds = Tb_obs.Clock.ns_to_ms (Tb_obs.Clock.elapsed_ns t0) /. 1e3 in
  let after = Tb_obs.Metrics.counter_snapshot () in
  let after_t = Tb_obs.Metrics.timer_snapshot () in
  let deltas =
    List.filter_map
      (fun (name, n) ->
        let b =
          match List.assoc_opt name before with Some b -> b | None -> 0
        in
        if n - b <> 0 then Some (name, n - b) else None)
      after
  in
  let timer_deltas =
    List.filter_map
      (fun (name, (n, ms)) ->
        let bn, bms =
          match List.assoc_opt name before_t with
          | Some (bn, bms) -> (bn, bms)
          | None -> (0, 0.0)
        in
        if n - bn <> 0 then Some (name, (n - bn, ms -. bms)) else None)
      after_t
  in
  (result, { seconds; counters = deltas; timers = timer_deltas })

let describe_stats s =
  let parts =
    List.map (fun (n, d) -> Printf.sprintf "%s +%d" n d) s.counters
    @ List.map
        (fun (n, (d, ms)) -> Printf.sprintf "%s +%d/%.0fms" n d ms)
        s.timers
  in
  let detail = String.concat ", " parts in
  if detail = "" then Printf.sprintf "%.1fs" s.seconds
  else Printf.sprintf "%.1fs (%s)" s.seconds detail

let stats_to_json s =
  Tb_obs.Json.Obj
    [
      ("seconds", Tb_obs.Json.Float s.seconds);
      ( "counters",
        Tb_obs.Json.Obj
          (List.map (fun (n, d) -> (n, Tb_obs.Json.Int d)) s.counters) );
      ( "timers",
        Tb_obs.Json.Obj
          (List.map
             (fun (n, (d, ms)) ->
               ( n,
                 Tb_obs.Json.Obj
                   [
                     ("count", Tb_obs.Json.Int d);
                     ("total_ms", Tb_obs.Json.Float ms);
                   ] ))
             s.timers) );
    ]

let section title =
  Printf.printf "\n==== %s ====\n%!" title

let cell = Table.cell_f
