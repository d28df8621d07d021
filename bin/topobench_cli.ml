(* topobench — command-line front end.

   Subcommands:
     throughput   compute the throughput of a topology under a TM
     relative     relative throughput vs same-equipment random graphs
     cuts         sparse-cut estimator suite for a topology
     worstcase    longest-matching TM vs A2A and the Theorem-2 bound
     failures     throughput vs link-failure rate (resilient harness)
     serve        ndjson solve daemon over stdin/stdout (Tb_service)
     pool         supervised multi-worker solve daemon (restart/retry/drain)
     batch        run a file of requests as one coalesced batch
     check        differential fuzzing of all solver routes (Tb_check)
     stats        render a metrics snapshot / access log as a quantile table
     loadgen      seeded service load benchmark (BENCH_service.json)
     info         print a topology's vital statistics

   The other solving subcommands construct a Tb_service.Request and go
   through the service front door, sharing its content-addressed
   result cache; `relative` and `failures` solve through Tb_harness
   directly (Topobench.Relative, Tb_experiments.Failure_sweep). *)

module Topology = Tb_topo.Topology
module Catalog = Tb_topo.Catalog
module Synthetic = Tb_tm.Synthetic
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Rng = Tb_prelude.Rng
module Json = Tb_obs.Json
module Failure_sweep = Tb_experiments.Failure_sweep
open Cmdliner

(* Bad input (unparsable topology/TM files, infeasible parameters) is a
   usage error, not a crash: one line on stderr and exit code 2. *)
let or_usage_error f =
  try f () with
  | Tb_topo.Io.Parse_error { file; line; msg } ->
    Printf.eprintf "topobench: %s\n%!"
      (Tb_topo.Io.error_message ~file ~line ~msg);
    exit 2
  | Tb_tm.Io.Parse_error { file; line; msg } ->
    Printf.eprintf "topobench: %s\n%!"
      (Tb_tm.Io.error_message ~file ~line ~msg);
    exit 2
  | Sys_error msg | Failure msg | Invalid_argument msg ->
    Printf.eprintf "topobench: %s\n%!" msg;
    exit 2

(* ---- Topology construction from CLI options. ---- *)

type topo_spec = {
  family : string;
  size : int option; (* family-specific primary parameter *)
  degree : int;
  hosts : int;
  seed : int;
  topo_file : string option;
  tm_file : string option;
}

(* Family/size construction lives in Tb_topo.Catalog (shared with the
   service layer and the bench workloads); the CLI only assembles a
   [Catalog.spec] from its flags. *)
let catalog_spec spec =
  {
    Catalog.family = String.lowercase_ascii spec.family;
    size = spec.size;
    degree = spec.degree;
    hosts = spec.hosts;
    seed = spec.seed;
  }

let build_topology spec =
  or_usage_error @@ fun () ->
  match spec.topo_file with
  | Some path -> Tb_topo.Io.load path
  | None -> Catalog.build_spec (catalog_spec spec)

let build_tm spec topo name =
  or_usage_error @@ fun () ->
  match spec.tm_file with
  | Some path -> Tb_tm.Io.load path
  | None -> (
    match Tb_service.Request.build_named_tm ~seed:spec.seed topo name with
    | Some tm -> tm
    | None -> failwith (Printf.sprintf "unknown TM %S" name))

(* ---- Common options. ---- *)

let topo_term =
  let family =
    Arg.(
      value
      & opt string "jellyfish"
      & info [ "topo"; "t" ] ~docv:"FAMILY"
          ~doc:
            "Topology family: hypercube, fattree, bcube, dcell, dragonfly, \
             flatbf, hyperx, jellyfish, longhop, slimfly, xpander.")
  in
  let topo_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "topo-file" ] ~docv:"PATH"
          ~doc:"Load the topology from a file instead (see lib/topo/io.mli).")
  in
  let tm_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "tm-file" ] ~docv:"PATH"
          ~doc:"Load the traffic matrix from a file (src dst weight lines).")
  in
  let size =
    Arg.(
      value
      & opt (some int) None
      & info [ "size"; "n" ] ~docv:"N"
          ~doc:
            "Primary size parameter (dimension, k, n, h, servers or q \
             depending on the family). Defaults to a small per-family \
             feasible size.")
  in
  let degree =
    Arg.(value & opt int 6 & info [ "degree"; "d" ] ~doc:"Switch degree (Jellyfish).")
  in
  let hosts =
    Arg.(value & opt int 1 & info [ "hosts" ] ~doc:"Servers per switch.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:
            "Random seed (default 42). Every randomized construction \
             (Jellyfish, Xpander, random TMs) and every failure trial \
             derives deterministically from it, so runs are \
             bit-reproducible.")
  in
  Term.(
    const (fun family size degree hosts seed topo_file tm_file ->
        { family; size; degree; hosts; seed; topo_file; tm_file })
    $ family $ size $ degree $ hosts $ seed $ topo_file $ tm_file)

let tm_term =
  Arg.(
    value & opt string "a2a"
    & info [ "tm" ] ~docv:"TM"
        ~doc:"Traffic matrix: a2a, rm, rm5, lm, kodialam, tmh, tmf.")

(* ---- Observability options (shared by every subcommand). ---- *)

type obs_opts = {
  trace : string option;
  metrics : string option;
  prometheus : string option;
  verbosity : int; (* -1 quiet, 0 warnings, 1 info, 2+ debug *)
}

let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record spans and solver convergence as Chrome trace-event \
             JSON to $(docv) (open in chrome://tracing or \
             ui.perfetto.dev).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Dump the metrics registry (solver counters, timers, final \
             bounds) as JSON to $(docv) on exit.")
  in
  let prometheus =
    Arg.(
      value
      & opt (some string) None
      & info [ "prometheus" ] ~docv:"FILE"
          ~doc:
            "Write the metrics registry in Prometheus text exposition \
             format to $(docv) on exit (for a node-exporter textfile \
             collector or a scrape-side cat).")
  in
  let verbose =
    Arg.(
      value & flag_all
      & info [ "v"; "verbose" ]
          ~doc:"Log informational messages; repeat for debug.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Silence warnings (phase caps etc.).")
  in
  Term.(
    const (fun trace metrics prometheus verbose quiet ->
        {
          trace;
          metrics;
          prometheus;
          verbosity = (if quiet then -1 else List.length verbose);
        })
    $ trace $ metrics $ prometheus $ verbose $ quiet)

let setup_logs verbosity =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level
    (match verbosity with
    | v when v < 0 -> None
    | 0 -> Some Logs.Warning
    | 1 -> Some Logs.Info
    | _ -> Some Logs.Debug)

(* Run a subcommand body under the requested observability setup; trace
   and metrics files are written even when the body raises, so a failed
   run still leaves its diagnostics behind.

   [handle_signals] additionally flushes everything on SIGTERM/SIGINT
   and exits with the conventional 128+signo code — the daemon
   subcommands run until killed, and without this their --trace /
   --metrics / --access-log output would die with them. [cleanup] runs
   in every exit path (extra writers to close, etc.); [finish] is
   idempotent because a handled signal exits before Fun.protect's
   finally can run again. *)
let with_obs ?(handle_signals = false) ?(cleanup = fun () -> ()) o f =
  setup_logs o.verbosity;
  if o.trace <> None then Tb_obs.Trace.enable ();
  let write_or_die write path =
    try write path
    with Sys_error msg ->
      Printf.eprintf "topobench: cannot write %s\n%!" msg;
      exit 2
  in
  let write_prometheus path =
    let oc = open_out path in
    output_string oc (Tb_obs.Metrics.to_prometheus ());
    close_out oc
  in
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      Option.iter (write_or_die Tb_obs.Trace.write) o.trace;
      Option.iter (write_or_die Tb_obs.Metrics.write) o.metrics;
      Option.iter (write_or_die write_prometheus) o.prometheus;
      cleanup ()
    end
  in
  if handle_signals then begin
    let on_signal signo =
      Sys.Signal_handle
        (fun _ ->
          finish ();
          exit (128 + signo))
    in
    (* Signal numbers in the exit code follow the shell convention
       (SIGINT=2 -> 130, SIGTERM=15 -> 143); Sys's own constants are
       OCaml-internal negatives. *)
    Sys.set_signal Sys.sigint (on_signal 2);
    (try Sys.set_signal Sys.sigterm (on_signal 15)
     with Invalid_argument _ | Sys_error _ -> ())
  end;
  Fun.protect ~finally:finish f

let pp_estimate name (e : Mcf.estimate) =
  Printf.printf "%s: %.4f  (certified in [%.4f, %.4f])\n" name e.Mcf.value
    e.Mcf.lower e.Mcf.upper

(* ---- The service front door. ----

   Solving subcommands construct a Tb_service.Request and go through
   Tb_service.Service.handle — the same code path as `topobench serve`
   and `topobench batch`. The instance is prebuilt here so that file
   and parameter errors keep their historical one-line-and-exit-2
   behavior; the request still carries the canonical spec, so results
   are cached under the same hash a daemon would use. *)

let service_request ?budget_ms spec tm_name topo tm =
  let topo_spec =
    match spec.topo_file with
    | Some _ -> Tb_service.Request.Inline_topo (Tb_topo.Io.to_string topo)
    | None -> Tb_service.Request.Spec (catalog_spec spec)
  in
  let tm_spec =
    match spec.tm_file with
    | Some _ -> Tb_service.Request.Inline_tm (Tb_tm.Io.to_string tm)
    | None -> Tb_service.Request.Named tm_name
  in
  Tb_service.Request.make ?budget_ms ~seed:spec.seed ~topo:topo_spec
    ~tm:tm_spec ()

(* An error result from the service is a solver failure, not a usage
   error: report and exit 1. *)
let result_or_die (r : Tb_service.Result.t) =
  match r.Tb_service.Result.error with
  | Some msg ->
    Printf.eprintf "topobench: solve failed: %s\n%!" msg;
    exit 1
  | None -> r

let pp_result name (r : Tb_service.Result.t) =
  let r = result_or_die r in
  Printf.printf "%s: %.4f  (certified in [%.4f, %.4f], %s rung)\n" name
    r.Tb_service.Result.value r.Tb_service.Result.lower
    r.Tb_service.Result.upper r.Tb_service.Result.rung

(* One solve through a fresh service. *)
let solve_one spec tm_name topo tm =
  let svc = Tb_service.Service.create ~capacity:16 () in
  (Tb_service.Service.handle ~prebuilt:(topo, tm) svc
     (service_request spec tm_name topo tm))
    .Tb_service.Service.result

(* ---- Subcommands. ---- *)

let throughput_cmd =
  let run obs spec tm_name =
    with_obs obs @@ fun () ->
    let topo = build_topology spec in
    let tm = build_tm spec topo tm_name in
    let r = solve_one spec tm_name topo tm in
    Printf.printf "%s under %s (%d flows)\n" (Topology.label topo)
      (Tm.label tm) (Tm.num_flows tm);
    pp_result "throughput" r
  in
  Cmd.v
    (Cmd.info "throughput" ~doc:"Throughput of a topology under a TM")
    Term.(const run $ obs_term $ topo_term $ tm_term)

let relative_cmd =
  let run obs spec tm_name iters =
    with_obs obs @@ fun () ->
    let topo = build_topology spec in
    let tm = build_tm spec topo tm_name in
    let r =
      Topobench.Relative.compute_fixed ~iterations:iters
        ~rng:(Rng.make spec.seed) topo tm
    in
    pp_estimate "absolute" r.Topobench.Relative.absolute;
    Printf.printf "random-graph mean: %.4f\n"
      r.Topobench.Relative.random_absolute.Tb_prelude.Stats.mean;
    Printf.printf "relative throughput: %.4f (±%.4f, %d random graphs)\n"
      r.Topobench.Relative.relative.Tb_prelude.Stats.mean
      r.Topobench.Relative.relative.Tb_prelude.Stats.ci95 iters
  in
  let iters =
    Arg.(value & opt int 3 & info [ "iterations"; "i" ] ~doc:"Random graphs.")
  in
  Cmd.v
    (Cmd.info "relative"
       ~doc:"Relative throughput vs same-equipment random graphs")
    Term.(const run $ obs_term $ topo_term $ tm_term $ iters)

let cuts_cmd =
  let run obs spec tm_name =
    with_obs obs @@ fun () ->
    let topo = build_topology spec in
    let tm = build_tm spec topo tm_name in
    let report = Tb_cuts.Estimator.run_tm topo.Topology.graph tm in
    Printf.printf "%s under %s\n" (Topology.label topo) (Tm.label tm);
    Printf.printf "best sparse cut: %.4f\n" report.Tb_cuts.Estimator.sparsity;
    List.iter
      (fun (est, v) ->
        Printf.printf "  %-12s %s\n"
          (Tb_cuts.Estimator.name est)
          (if v = infinity then "-" else Printf.sprintf "%.4f" v))
      report.Tb_cuts.Estimator.per_estimator;
    pp_result "throughput (for comparison)" (solve_one spec tm_name topo tm)
  in
  Cmd.v
    (Cmd.info "cuts" ~doc:"Sparse-cut estimator suite")
    Term.(const run $ obs_term $ topo_term $ tm_term)

(* --warm/--no-warm: thread a Tb_harness.Warm cache through the sweep's
   service solves. Default OFF — warm-started brackets are
   certificate-guarded but not bit-identical to cold ones. *)
let warm_term =
  Arg.(
    value
    & vflag false
        [
          ( true,
            info [ "warm" ]
              ~doc:
                "Warm-start each solve from the previous cell's dual \
                 certificate (certificate-guarded: a stale warm start \
                 degrades to a cold solve, never an unchecked bracket)." );
          ( false,
            info [ "no-warm" ] ~doc:"Solve every cell cold (default)." );
        ])

let worstcase_cmd =
  let run obs spec warm =
    with_obs obs @@ fun () ->
    let topo = build_topology spec in
    let svc = Tb_service.Service.create ~capacity:16 () in
    (* One key for both TMs: they share the topology, so the LM solve
       chains from the A2A dual certificate. *)
    let warm_arg =
      if warm then
        Some (Tb_harness.Warm.create (), Topology.label topo)
      else None
    in
    let solve tm_name tm =
      result_or_die
        (Tb_service.Service.handle ~prebuilt:(topo, tm) ?warm:warm_arg svc
           (service_request spec tm_name topo tm))
          .Tb_service.Service.result
    in
    let a2a = solve "a2a" (Synthetic.all_to_all topo) in
    let lm = solve "lm" (Synthetic.longest_matching topo) in
    pp_result "A2A" a2a;
    pp_result "longest matching" lm;
    let a2a_v = a2a.Tb_service.Result.value in
    Printf.printf "Theorem-2 lower bound (A2A/2): %.4f\n" (a2a_v /. 2.0);
    Printf.printf "LM / lower bound: %.3f (1.0 means worst case attained)\n"
      (lm.Tb_service.Result.value /. (a2a_v /. 2.0))
  in
  Cmd.v
    (Cmd.info "worstcase"
       ~doc:"Near-worst-case (longest matching) study of one topology")
    Term.(const run $ obs_term $ topo_term $ warm_term)

let failures_cmd =
  let run obs spec tm_name rates trials checkpoint warm budget_ms timeout_p
      nan_p exc_p =
    with_obs obs @@ fun () ->
    let topo = build_topology spec in
    let tm = build_tm spec topo tm_name in
    let checkpoint =
      Option.map (fun path -> Tb_harness.Checkpoint.load ~path) checkpoint
    in
    Tb_harness.Sweep.install_graceful_stop ();
    let cfg =
      { Tb_experiments.Common.default with Tb_experiments.Common.seed = spec.seed }
    in
    let warm = if warm then Some (Tb_harness.Warm.create ()) else None in
    let fault =
      if timeout_p = 0.0 && nan_p = 0.0 && exc_p = 0.0 then None
      else
        Some
          (fun seed -> Tb_harness.Fault.make ~timeout_p ~nan_p ~exc_p ~seed ())
    in
    let rows =
      try
        or_usage_error @@ fun () ->
        Failure_sweep.sweep ?checkpoint ?warm ~budget_ms ?fault
          ~on_cell:(fun key _ -> Printf.printf "  done %s\n%!" key)
          cfg topo tm ~rates ~trials
      with Tb_harness.Sweep.Interrupted key ->
        Printf.eprintf
          "topobench: interrupted before cell %s%s\n%!" key
          (match checkpoint with
          | Some c ->
            Printf.sprintf "; resume with --checkpoint %s"
              (Tb_harness.Checkpoint.path c)
          | None -> " (no --checkpoint: progress lost)");
        exit 130
    in
    Failure_sweep.print
      ~title:
        (Printf.sprintf "Failure sweep: %s under %s" (Topology.label topo)
           (Tm.label tm))
      [ (topo, rows) ];
    (* On stderr: the counters cover this process's lookups only, so a
       resumed run's would differ from an uninterrupted one's. *)
    Option.iter
      (fun c ->
        Printf.eprintf "warm cache: %d hit(s), %d miss(es)\n"
          (Tb_harness.Warm.hits c) (Tb_harness.Warm.misses c))
      warm
  in
  let rates =
    Arg.(
      value
      & opt (list float) [ 0.0; 0.05; 0.1 ]
      & info [ "rates" ] ~docv:"R,R,..."
          ~doc:"Comma-separated link-failure rates (include 0 for the \
                intact baseline).")
  in
  let trials =
    Arg.(
      value & opt int 3
      & info [ "trials" ] ~docv:"N"
          ~doc:"Failure samples per rate (deterministic given --seed).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:
            "Persist completed cells to $(docv) (JSON, written \
             atomically after every cell); an interrupted sweep rerun \
             with the same $(docv) resumes and produces identical \
             output.")
  in
  let budget_ms =
    Arg.(
      value & opt float infinity
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:
            "Per-solve wall-clock budget; an attempt over budget is \
             retried with a relaxed tolerance, then degraded down the \
             solver chain (exact LP, FPTAS, cut bounds).")
  in
  let prob kind names =
    Arg.(
      value & opt float 0.0
      & info names ~docv:"P"
          ~doc:
            (Printf.sprintf
               "Fault injection: probability of a simulated %s per solver \
                attempt (deterministic given --seed; exercises the \
                degradation chain)."
               kind))
  in
  Cmd.v
    (Cmd.info "failures"
       ~doc:"Throughput vs random link failures, via the resilient harness")
    Term.(
      const run $ obs_term $ topo_term $ tm_term $ rates $ trials $ checkpoint
      $ warm_term $ budget_ms
      $ prob "timeout" [ "inject-timeout" ]
      $ prob "NaN result" [ "inject-nan" ]
      $ prob "solver exception" [ "inject-failure" ])

(* ---- Service mode. ---- *)

let store_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"PATH"
        ~doc:
          "Append-only on-disk result store (one JSON line per solved \
           request); reopening the same $(docv) serves previous results \
           from disk.")

let cache_size_term =
  Arg.(
    value & opt int 256
    & info [ "cache-size" ] ~docv:"N"
        ~doc:"In-memory LRU result-cache capacity (request hashes).")

let access_log_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "access-log" ] ~docv:"FILE"
        ~doc:
          "Append one structured ndjson record per request to $(docv) \
           (hash, solver, rung, cached/coalesced flags, queue_ms, \
           solve_ms, error); size-rotated, and renderable with \
           $(b,topobench stats).")

let make_service ?access_log store capacity =
  or_usage_error @@ fun () ->
  let access_log = Option.map Tb_obs.Events.open_ access_log in
  Tb_service.Service.create ~capacity ?store_path:store ?access_log ()

let close_access_log svc =
  Option.iter Tb_obs.Events.close (Tb_service.Service.access_log svc)

let serve_cmd =
  let run obs store capacity access_log =
    (* The daemon runs until killed: flush trace/metrics/access-log on
       SIGTERM/SIGINT too, not just at EOF. *)
    let svc_ref = ref None in
    with_obs ~handle_signals:true
      ~cleanup:(fun () -> Option.iter close_access_log !svc_ref)
      obs
    @@ fun () ->
    let svc = make_service ?access_log store capacity in
    svc_ref := Some svc;
    Tb_service.Service.serve svc
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Solve daemon: newline-delimited JSON requests on stdin, one \
          result line per request on stdout (see lib/service/request.mli \
          for the request schema)")
    Term.(const run $ obs_term $ store_term $ cache_size_term $ access_log_term)

let batch_cmd =
  let run obs store capacity access_log file =
    with_obs obs @@ fun () ->
    let lines =
      or_usage_error @@ fun () ->
      let ic = open_in file in
      let rec collect acc =
        match input_line ic with
        | line -> collect (line :: acc)
        | exception End_of_file ->
          close_in ic;
          List.rev acc
      in
      collect []
    in
    let svc = make_service ?access_log store capacity in
    Fun.protect ~finally:(fun () -> close_access_log svc) @@ fun () ->
    let out = Tb_service.Service.batch_lines svc lines in
    List.iter
      (fun j ->
        print_string (Json.to_string j);
        print_newline ())
      out;
    let c name =
      match Tb_obs.Metrics.find_counter name with
      | Some c -> Tb_obs.Metrics.count c
      | None -> 0
    in
    Printf.eprintf
      "topobench: %d request(s): %d solved, %d cache hit(s), %d \
       coalesced, %d error(s)\n%!"
      (c "service.requests") (c "service.solves") (c "service.cache.hits")
      (c "service.coalesced") (c "service.errors")
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Request file: one JSON request per line (# comments and \
             blank lines skipped). Duplicate requests are coalesced to \
             one solve; distinct requests on the same topology share \
             one graph build.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Solve a file of requests as one coalesced, parallel batch")
    Term.(
      const run $ obs_term $ store_term $ cache_size_term $ access_log_term
      $ file)

(* ---- The supervised pool daemon. ---- *)

let workers_term =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker processes in the supervised pool.")

let max_queue_term =
  Arg.(
    value & opt int 256
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission bound: requests queued beyond $(docv) are rejected \
           with a typed $(i,overloaded) error instead of waiting \
           unboundedly.")

let wall_ms_term =
  Arg.(
    value & opt float 60000.0
    & info [ "wall-ms" ] ~docv:"MS"
        ~doc:
          "Per-dispatch hang deadline: a worker silent for $(docv) \
           milliseconds is killed and its request retried elsewhere. \
           Set it above the request budget_ms.")

let store_dir_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "store-dir" ] ~docv:"DIR"
        ~doc:
          "Directory of per-worker store segments \
           (segment-<slot>.ndjson, one writer each), merged into \
           merged.ndjson on graceful drain.")

(* The three process-level chaos probabilities share one seeded stream;
   all zero (the default) means no injector at all. *)
let chaos_term =
  let prob name doc =
    Arg.(
      value & opt float 0.0
      & info [ "chaos-" ^ name ] ~docv:"P" ~doc)
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "chaos-seed" ] ~docv:"S"
          ~doc:"Seed of the chaos decision stream (replayable).")
  in
  Term.(
    const (fun kill stall truncate seed ->
        if kill = 0.0 && stall = 0.0 && truncate = 0.0 then
          Tb_harness.Fault.none
        else
          or_usage_error @@ fun () ->
          Tb_harness.Fault.make ~kill_p:kill ~stall_p:stall
            ~truncate_p:truncate ~seed ())
    $ prob "kill"
        "Chaos: probability a dispatched request's worker is SIGKILLed \
         mid-solve (restart + retry must recover)."
    $ prob "stall"
        "Chaos: probability the worker is SIGSTOPped (the hang detector \
         must fire)."
    $ prob "truncate"
        "Chaos: probability the response bytes are truncated (the \
         protocol path must recover)."
    $ seed)

let pool_cmd =
  let run obs workers max_queue wall_ms store_dir cache_size chaos =
    (* SIGTERM/SIGINT flip the stop flag: Pool.serve stops intake,
       drains in-flight work, merges store segments and returns — the
       graceful-drain path, after which with_obs still writes
       trace/metrics. *)
    let stop = ref false in
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
     with Invalid_argument _ | Sys_error _ -> ());
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
    with_obs obs @@ fun () ->
    or_usage_error @@ fun () ->
    let pool =
      Tb_service.Pool.create
        ~config:
          {
            Tb_service.Pool.default_config with
            workers;
            max_queue;
            wall_ms;
            store_dir;
            cache_capacity = cache_size;
            chaos;
          }
        ()
    in
    Fun.protect ~finally:(fun () -> Tb_service.Pool.drain pool) @@ fun () ->
    Tb_service.Pool.serve ~stop pool
  in
  Cmd.v
    (Cmd.info "pool"
       ~doc:
         "Supervised multi-process solve daemon: ndjson requests on \
          stdin sharded over N restartable workers, typed overload \
          rejection, graceful drain on SIGTERM")
    Term.(
      const run $ obs_term $ workers_term $ max_queue_term $ wall_ms_term
      $ store_dir_term $ cache_size_term $ chaos_term)

let check_cmd =
  let run obs instances seed corpus subject report =
    with_obs obs @@ fun () ->
    or_usage_error @@ fun () ->
    let subject =
      match Tb_check.Fuzz.subject_of_string subject with
      | Some s -> s
      | None ->
        failwith
          (Printf.sprintf
             "unknown fuzz subject %S (expected all_solvers or warm_vs_cold)"
             subject)
    in
    let cfg = { Tb_check.Fuzz.instances; seed; corpus; subject } in
    let progress msg = Logs.info (fun m -> m "%s" msg) in
    let rep = Tb_check.Fuzz.run ~progress cfg in
    let json = Tb_check.Fuzz.report_json cfg rep in
    (match report with
    | Some path -> Json.write path json
    | None -> print_endline (Json.to_string ~indent:true json));
    let t = rep.Tb_check.Fuzz.tally in
    List.iter
      (fun name ->
        Printf.eprintf "  %-20s %6d pass %6d fail\n" name
          (Tb_check.Diff.passes t name)
          (Tb_check.Diff.fails t name))
      (Tb_check.Diff.exercised t);
    Printf.eprintf
      "topobench check: %d instance(s) (%d from corpus), %d certificate \
       failure(s)\n\
       %!"
      (rep.Tb_check.Fuzz.instances_run + rep.Tb_check.Fuzz.corpus_replayed)
      rep.Tb_check.Fuzz.corpus_replayed
      (Tb_check.Diff.total_failures t);
    exit (Tb_check.Fuzz.exit_code rep)
  in
  let instances =
    Arg.(
      value & opt int 100
      & info [ "instances" ] ~docv:"N"
          ~doc:"Freshly generated fuzz instances to run.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Base seed of the instance stream (each instance's own seed \
             is derived from it and printed on failure).")
  in
  let corpus =
    Arg.(
      value
      & opt (some dir) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Replay the pinned seeds in $(docv) (one {\"seed\": N, \
             \"note\": ...} JSON file per entry) before the fresh \
             instances.")
  in
  let subject =
    Arg.(
      value
      & opt string "all_solvers"
      & info [ "subject" ] ~docv:"SUBJECT"
          ~doc:
            "Which checker runs over the instance stream: $(b,all_solvers) \
             (every solver route, differentially certificate-checked) or \
             $(b,warm_vs_cold) (solve cold, perturb by one edge deletion / \
             one demand scaling, assert the warm-started bracket is \
             certificate-green and agrees with an independent cold solve).")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the JSON report (per-certificate pass/fail counts \
             and failure details) to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential fuzzing: random instances through every solver \
          route, every result certificate-checked (exits non-zero on \
          any failure)")
    Term.(const run $ obs_term $ instances $ seed $ corpus $ subject $ report)

(* ---- Observability rendering. ---- *)

let read_whole_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let jfloat name fields =
  match Option.bind (Json.member name fields) Json.to_float with
  | Some v -> v
  | None -> 0.0

let jbool name fields =
  match Json.member name fields with Some (Json.Bool b) -> b | _ -> false

(* A metrics snapshot is {name: {"type": ..., ...}, ...}; anything else
   is treated as an ndjson access log. *)
let snapshot_of_string contents =
  match Json.of_string contents with
  | Ok (Json.Obj entries) when entries <> [] ->
    let typed = function
      | _, Json.Obj fields -> (
        match List.assoc_opt "type" fields with
        | Some (Json.String _) -> true
        | _ -> false)
      | _ -> false
    in
    if List.for_all typed entries then Some (Json.Obj entries) else None
  | _ -> None

let quantile_table ~title rows =
  let t =
    Tb_prelude.Table.create ~title
      [ "metric"; "n"; "p50"; "p90"; "p99"; "max" ]
  in
  List.iter
    (fun (name, n, p50, p90, p99, mx) ->
      Tb_prelude.Table.add_row t
        [
          name;
          string_of_int n;
          Printf.sprintf "%.3f" p50;
          Printf.sprintf "%.3f" p90;
          Printf.sprintf "%.3f" p99;
          Printf.sprintf "%.3f" mx;
        ])
    rows;
  Tb_prelude.Table.print ~align:Tb_prelude.Table.Right t

let render_snapshot doc =
  let entries = match doc with Json.Obj e -> e | _ -> [] in
  let kind_of fields =
    match Json.member "type" fields with
    | Some (Json.String k) -> k
    | _ -> ""
  in
  let dists =
    List.filter_map
      (fun (name, fields) ->
        match kind_of fields with
        | "histogram" | "hdr" ->
          Some
            ( name,
              (match Option.bind (Json.member "count" fields) Json.to_int with
              | Some n -> n
              | None -> 0),
              jfloat "p50" fields,
              jfloat "p90" fields,
              jfloat "p99" fields,
              jfloat "max" fields )
        | _ -> None)
      entries
  in
  (* Quiet subsystems (no samples) don't pad the tables. *)
  let dists = List.filter (fun (_, n, _, _, _, _) -> n > 0) dists in
  if dists <> [] then quantile_table ~title:"latency distributions" dists;
  let timers =
    List.filter
      (fun (_, f) -> kind_of f = "timer" && jfloat "count" f > 0.0)
      entries
  in
  if timers <> [] then begin
    let t =
      Tb_prelude.Table.create ~title:"timers"
        [ "timer"; "n"; "total_ms"; "mean_ms" ]
    in
    List.iter
      (fun (name, fields) ->
        Tb_prelude.Table.add_row t
          [
            name;
            Printf.sprintf "%.0f" (jfloat "count" fields);
            Printf.sprintf "%.1f" (jfloat "total_ms" fields);
            Printf.sprintf "%.3f" (jfloat "mean_ms" fields);
          ])
      timers;
    Tb_prelude.Table.print ~align:Tb_prelude.Table.Right t
  end;
  let counters =
    List.filter
      (fun (_, f) -> kind_of f = "counter" && jfloat "count" f <> 0.0)
      entries
  in
  if counters <> [] then begin
    Printf.printf "\ncounters:\n";
    let w =
      List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 counters
    in
    List.iter
      (fun (name, fields) ->
        Printf.printf "  %-*s  %.0f\n" w name (jfloat "count" fields))
      counters
  end

let render_access_log path =
  let records, skipped = Tb_obs.Events.read path in
  if records = [] then
    failwith (Printf.sprintf "%s: no access-log records" path);
  let fresh = Tb_obs.Hdr.create () in
  let served = Tb_obs.Hdr.create () in
  let queue = Tb_obs.Hdr.create () in
  let hits = ref 0 and coalesced = ref 0 and errors = ref 0 in
  List.iter
    (fun r ->
      let cached = jbool "cached" r and coal = jbool "coalesced" r in
      let is_error =
        match Json.member "error" r with
        | Some Json.Null | None -> false
        | Some _ -> true
      in
      if cached then incr hits;
      if coal then incr coalesced;
      if is_error then incr errors;
      let solve_ms = jfloat "solve_ms" r in
      Tb_obs.Hdr.record served solve_ms;
      if (not cached) && not coal then begin
        Tb_obs.Hdr.record fresh solve_ms;
        Tb_obs.Hdr.record queue (jfloat "queue_ms" r)
      end)
    records;
  let n = List.length records in
  Printf.printf
    "%s: %d request(s), %d cache hit(s) (rate %.3f), %d coalesced, %d \
     error(s)%s\n"
    path n !hits
    (float_of_int !hits /. float_of_int n)
    !coalesced !errors
    (if skipped > 0 then Printf.sprintf ", %d unreadable line(s)" skipped
     else "");
  let row name h =
    let open Tb_obs.Hdr in
    (name, count h, quantile h 0.5, quantile h 0.9, quantile h 0.99,
     max_value h)
  in
  quantile_table ~title:"latency (ms, from access log)"
    [
      row "solve_ms (fresh)" fresh;
      row "solve_ms (served)" served;
      row "queue_ms (fresh)" queue;
    ]

(* stats is a pure renderer: no solver runs, so it takes no --trace /
   --metrics / --prometheus-file machinery of its own (and its
   --prometheus output flag must not clash with obs_term's). *)
let stats_cmd =
  let run file prometheus =
    setup_logs 0;
    or_usage_error @@ fun () ->
    let contents = read_whole_file file in
    match snapshot_of_string contents with
    | Some doc ->
      if prometheus then (
        match Tb_obs.Metrics.prometheus_of_json doc with
        | Ok s -> print_string s
        | Error e -> failwith (Printf.sprintf "%s: %s" file e))
      else render_snapshot doc
    | None ->
      if prometheus then
        failwith "--prometheus needs a metrics snapshot (--metrics output)";
      render_access_log file
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "A metrics snapshot (--metrics output) or a service access \
             log (--access-log output); the format is auto-detected.")
  in
  let prometheus =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "Render a metrics snapshot as Prometheus text exposition \
             instead of a table.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Render a metrics snapshot or access log as an aligned \
          p50/p90/p99/max quantile table")
    Term.(const run $ file $ prometheus)

(* ---- Load generator. ---- *)

let loadgen_cmd =
  let run obs requests seed batch cache_size zipf out access_log use_pool
      workers max_queue wall_ms store_dir chaos =
    with_obs obs @@ fun () ->
    or_usage_error @@ fun () ->
    let cfg =
      {
        Tb_service.Loadgen.requests;
        seed;
        batch;
        cache_capacity = cache_size;
        zipf_s = zipf;
      }
    in
    let open Tb_service.Loadgen in
    let o, doc =
      if use_pool then begin
        let pool_cfg =
          { workers; max_queue; wall_ms; chaos; store_dir }
        in
        let po = run_pool ~pool_cfg cfg in
        Printf.printf
          "loadgen --pool: %d worker(s): %d restart(s), %d retrie(s), %d \
           rejection(s), %d mismatch(es), %d lost\n"
          po.p_workers po.p_restarts po.p_retries po.p_rejected
          po.p_mismatches po.p_lost;
        (po.p_base, pool_outcome_json cfg pool_cfg po)
      end
      else begin
        let writer = Option.map Tb_obs.Events.open_ access_log in
        let o =
          Fun.protect
            ~finally:(fun () -> Option.iter Tb_obs.Events.close writer)
            (fun () -> Tb_service.Loadgen.run ?access_log:writer cfg)
        in
        (o, outcome_json cfg o)
      end
    in
    Printf.printf "loadgen: %d request(s) (%d distinct, seed %d) in %.2fs\n"
      o.o_requests o.distinct seed o.duration_s;
    Printf.printf "  rps %.1f  hit rate %.3f  solves %d  errors %d\n" o.rps
      o.hit_rate o.solves o.errors;
    Printf.printf "  latency ms: p50 %.3f  p90 %.3f  p99 %.3f  max %.3f\n"
      o.p50_ms o.p90_ms o.p99_ms o.max_ms;
    Json.write out doc;
    Printf.printf "wrote %s\n" out
  in
  let requests =
    Arg.(
      value & opt int 2000
      & info [ "requests"; "n" ] ~docv:"N"
          ~doc:"Total requests to replay.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Mix seed: the request pool, the hot set and the whole \
             replay order derive deterministically from it.")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"K"
          ~doc:
            "Replay in handle_batch chunks of $(docv) (exercises \
             coalescing; per-request latency is amortized over the \
             chunk). 1 serves each request individually.")
  in
  let zipf =
    Arg.(
      value & opt float 1.2
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf skew exponent of the hot/cold mix.")
  in
  let out =
    Arg.(
      value & opt string "BENCH_service.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Benchmark summary output path.")
  in
  let use_pool =
    Arg.(
      value & flag
      & info [ "pool" ]
          ~doc:
            "Replay through a supervised multi-process pool instead of \
             the in-process service, verifying every response against a \
             fault-free oracle (canonical result bytes). Combine with \
             the --chaos-* flags for a chaos run; the summary gains a \
             $(i,pool) object (restarts, retries, rejections, \
             mismatches, lost).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay a seeded Zipf-skewed request mix against an in-process \
          service (or, with --pool, a supervised worker pool under \
          optional chaos) and write BENCH_service.json (p50/p99 \
          latency, requests/sec, hit rate)")
    Term.(
      const run $ obs_term $ requests $ seed $ batch $ cache_size_term $ zipf
      $ out $ access_log_term $ use_pool $ workers_term $ max_queue_term
      $ wall_ms_term $ store_dir_term $ chaos_term)

let info_cmd =
  let run obs spec =
    with_obs obs @@ fun () ->
    let topo = build_topology spec in
    let g = topo.Topology.graph in
    Printf.printf "%s\n" (Topology.label topo);
    Printf.printf "  switches/nodes: %d\n" (Tb_graph.Graph.num_nodes g);
    Printf.printf "  links:          %d\n" (Tb_graph.Graph.num_edges g);
    Printf.printf "  servers:        %d\n" (Topology.num_servers topo);
    Printf.printf "  diameter:       %d\n" (Tb_graph.Traversal.diameter g);
    Printf.printf "  mean distance:  %.3f\n"
      (Tb_graph.Traversal.mean_distance g);
    let m = Tb_graph.Metrics.summarize g in
    Printf.printf "  degree range:   [%d, %d] (mean %.2f)\n"
      m.Tb_graph.Metrics.min_degree m.Tb_graph.Metrics.max_degree
      m.Tb_graph.Metrics.mean_degree;
    Printf.printf "  clustering:     %.4f\n" m.Tb_graph.Metrics.global_clustering;
    Printf.printf "  lambda2:        %.4f (normalized Laplacian)\n"
      m.Tb_graph.Metrics.algebraic_connectivity
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Topology vital statistics")
    Term.(const run $ obs_term $ topo_term)

let () =
  let doc = "Benchmarking the throughput of network topologies (SC'16)" in
  let main =
    Cmd.group
      (Cmd.info "topobench" ~version:"1.0.0" ~doc)
      [
        throughput_cmd;
        relative_cmd;
        cuts_cmd;
        worstcase_cmd;
        failures_cmd;
        serve_cmd;
        pool_cmd;
        batch_cmd;
        check_cmd;
        stats_cmd;
        loadgen_cmd;
        info_cmd;
      ]
  in
  exit (Cmd.eval main)
