(* Benchmark harness: regenerates every table and figure of the paper as
   aligned text tables (see EXPERIMENTS.md for the paper-vs-measured
   mapping), plus Bechamel micro-benchmarks of the substrate kernels.

   Usage:
     bench/main.exe                run every experiment, then the kernels
     bench/main.exe --quick        smaller sweeps, fewer iterations
     bench/main.exe -v             show solver Logs (phase caps etc.)
     bench/main.exe fig4 table2    run a subset
     bench/main.exe micro          only the Bechamel kernels
     bench/main.exe perf           perf record (BENCH_perf.json)

   Experiment runs also write BENCH_metrics.json (per-experiment
   seconds plus solver-work counter deltas: Fleischer phases, Dijkstra
   runs, simplex pivots), so the performance trajectory is comparable
   across commits. *)

module E = Tb_experiments
module Json = Tb_obs.Json

let experiments : (string * string * (E.Common.config -> unit)) list =
  [
    ("fig2", "TM ladder on hypercube / random graph / fat tree", E.Fig02.run);
    ("fig3", "throughput vs sparse cut scatter", E.Fig03.run);
    ("fig4", "TMs normalized to the Theorem-2 lower bound", E.Fig04.run);
    ("fig5", "relative throughput vs size (structured group)",
      E.Fig0506.run_fig5);
    ("fig6", "relative throughput vs size (expander group)",
      E.Fig0506.run_fig6);
    ("fig7", "HyperX by bisection target", E.Fig07.run);
    ("fig8", "Long Hop by dimension", E.Fig08.run);
    ("fig9", "Slim Fly throughput and path length", E.Fig09.run);
    ("fig10", "non-uniform TMs, relative throughput", E.Fig10_12.run_fig10_11);
    ("fig12", "non-uniform TMs, absolute throughput", E.Fig10_12.run_fig12);
    ("fig13", "Facebook-like Hadoop TM", E.Fig13_14.run_tmh);
    ("fig14", "Facebook-like frontend TM", E.Fig13_14.run_tmf);
    ("fig15", "fat tree vs Jellyfish (Yuan replication)", E.Fig15.run);
    ("table1", "relative throughput at largest size", E.Table1.run);
    ("table2", "sparse-cut estimator attribution", E.Table2.run);
    ("theory", "Theorem 1 and Theorem 2 demonstrations", E.Theory.run);
    ("butterfly25", "25-switch flattened butterfly counterexample",
      E.Butterfly25.run);
    ("lmcost", "LM vs Kodialam TM generation cost (Sec II-C)", E.Lm_cost.run);
    ("routing", "routing-restriction ablation (Sec V)",
      E.Routing_ablation.run);
    ("xpander", "Xpander extension study (ref [44])", E.Xpander_study.run);
    ( "failures",
      "A2A throughput vs link-failure rate (resilience extension)",
      fun cfg -> E.Failure_sweep.run cfg );
  ]

(* ---- Bechamel micro-benchmarks. ---- *)

let micro () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let rng = Tb_prelude.Rng.default () in
  let g = Tb_graph.Equipment.random_regular rng ~n:128 ~degree:8 in
  let topo =
    Tb_topo.Topology.switch_centric ~name:"bench" ~params:""
      ~hosts_per_switch:2 g
  in
  let cs = Tb_tm.Tm.commodities (Tb_tm.Synthetic.longest_matching topo) in
  let small =
    (* Same spec grammar as `topobench --topo`; see Tb_topo.Catalog. *)
    match Tb_topo.Catalog.spec_of_string "hypercube:4" with
    | Ok sp -> Tb_topo.Catalog.build_spec sp
    | Error e -> failwith e
  in
  let small_cs =
    Tb_tm.Tm.commodities (Tb_tm.Synthetic.longest_matching small)
  in
  let dist_matrix =
    Array.init 64 (fun i ->
        Array.init 64 (fun j ->
            float_of_int (((i * 37) mod 19) + ((j * 11) mod 23))))
  in
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        Test.make ~name:"dijkstra-128"
          (Staged.stage (fun () ->
               ignore
                 (Tb_graph.Sssp.dijkstra_dist g
                    ~len:(fun _ -> 1.0)
                    ~src:0)));
        Test.make ~name:"bfs-apsp-128"
          (Staged.stage (fun () -> ignore (Tb_graph.Traversal.apsp g)));
        Test.make ~name:"hungarian-64"
          (Staged.stage (fun () ->
               ignore (Tb_graph.Hungarian.maximize dist_matrix)));
        Test.make ~name:"spectral-fiedler-128"
          (Staged.stage (fun () ->
               ignore (Tb_graph.Spectral.second_eigenvector g)));
        Test.make ~name:"dinic-maxflow-128"
          (Staged.stage (fun () ->
               ignore (Tb_flow.Maxflow.solve g ~src:0 ~dst:64)));
        Test.make ~name:"fleischer-lm-128"
          (Staged.stage (fun () ->
               ignore (Tb_flow.Fleischer.solve ~tol:0.08 g cs)));
        Test.make ~name:"exact-lp-hypercube4"
          (Staged.stage (fun () ->
               ignore
                 (Tb_flow.Exact.solve small.Tb_topo.Topology.graph small_cs)));
      ]
  in
  Printf.printf "\n==== Bechamel micro-benchmarks (ns per run) ====\n%!";
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> rows := (name, est) :: !rows
      | Some [] | None -> ())
    ols;
  List.iter
    (fun (name, est) -> Printf.printf "%-32s %14.0f ns/run\n" name est)
    (List.sort compare !rows)

let metrics_file = "BENCH_metrics.json"

let () =
  (* Experiments parallelize at the data-point level; the gated inner
     map (Relative's random baselines) goes sequential so the cores are
     not oversubscribed. *)
  Tb_prelude.Parallel.enabled := false;
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let verbose = List.mem "-v" args || List.mem "--verbose" args in
  (* Without a reporter the solvers' Logs.warn calls (phase cap hit:
     "this bracket is looser than requested") vanish silently. *)
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning));
  let names =
    List.filter
      (fun a ->
        not
          (List.mem a
             [
               "--quick"; "-v"; "--verbose"; "micro"; "perf"; "--scale";
               "--scale-smoke";
             ]))
      args
  in
  if List.mem "perf" args then begin
    let mode =
      if List.mem "--scale-smoke" args then Perf.Scale_smoke
      else if List.mem "--scale" args then Perf.Scale
      else if quick then Perf.Quick
      else Perf.Full
    in
    Perf.run_mode mode;
    exit 0
  end;
  let micro_only = List.mem "micro" args && names = [] in
  let cfg = if quick then E.Common.quick else E.Common.default in
  let selected =
    if names = [] then experiments
    else
      List.map
        (fun n ->
          match List.find_opt (fun (name, _, _) -> name = n) experiments with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" n
              (String.concat ", "
                 (List.map (fun (name, _, _) -> name) experiments));
            exit 2)
        names
  in
  if not micro_only then begin
    Printf.printf "TopoBench reproduction — %s mode, %d experiment(s)\n"
      (if quick then "quick" else "full")
      (List.length selected);
    let reports = ref [] in
    List.iter
      (fun (name, descr, f) ->
        Printf.printf "\n[%s] %s\n%!" name descr;
        (* One failing experiment must not take down the whole run. *)
        let ok, stats =
          E.Common.with_stats (fun () ->
              try
                f cfg;
                true
              with e ->
                Printf.printf "[%s] FAILED: %s\n%!" name (Printexc.to_string e);
                false)
        in
        Printf.printf "[%s] done in %s\n%!" name
          (E.Common.describe_stats stats);
        reports := (name, ok, stats) :: !reports)
      selected;
    let reports = List.rev !reports in
    let total_of counter =
      List.fold_left
        (fun acc (_, _, s) ->
          acc
          + match List.assoc_opt counter s.E.Common.counters with
            | Some d -> d
            | None -> 0)
        0 reports
    in
    let timer_totals =
      (* Sum each timer's (calls, ms) delta over all experiments; the
         per-experiment splits are in the "experiments" section. *)
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (_, _, s) ->
          List.iter
            (fun (name, (n, ms)) ->
              let bn, bms =
                match Hashtbl.find_opt tbl name with
                | Some (bn, bms) -> (bn, bms)
                | None -> (0, 0.0)
              in
              Hashtbl.replace tbl name (bn + n, bms +. ms))
            s.E.Common.timers)
        reports;
      Hashtbl.fold
        (fun name (n, ms) acc ->
          ( name,
            Json.Obj
              [ ("count", Json.Int n); ("total_ms", Json.Float ms) ] )
          :: acc)
        tbl []
      |> List.sort compare
    in
    let doc =
      Json.Obj
        [
          ("mode", Json.String (if quick then "quick" else "full"));
          ( "experiments",
            Json.Obj
              (List.map
                 (fun (name, ok, stats) ->
                   ( name,
                     match E.Common.stats_to_json stats with
                     | Json.Obj fields ->
                       Json.Obj (("ok", Json.Bool ok) :: fields)
                     | other -> other ))
                 reports) );
          ( "totals",
            Json.Obj
              [
                ( "seconds",
                  Json.Float
                    (List.fold_left
                       (fun acc (_, _, s) -> acc +. s.E.Common.seconds)
                       0.0 reports) );
                ("fleischer_phases", Json.Int (total_of "fleischer.phases"));
                ("dijkstra_runs", Json.Int (total_of "dijkstra.runs"));
                ("simplex_pivots", Json.Int (total_of "simplex.pivots"));
                ("timers", Json.Obj timer_totals);
              ] );
        ]
    in
    Json.write metrics_file doc;
    Printf.printf "\nwrote %s\n%!" metrics_file
  end;
  if micro_only || names = [] then micro ()
