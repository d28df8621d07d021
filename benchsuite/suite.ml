(* The benchmark suite: one workload per process, end-to-end metrics
   from an untraced run and per-layer metrics from a traced one, every
   op's output checked outside the timed region.

   Usage (from the repository root; see README.md):
     suite.exe --workload W [--seed S] [--seconds N] [--trace 0|1]
               [--out F] [--chrome F] [--regen-golden]
     suite.exe compare BASE.json... vs NEW.json...

   Metric names, units, directions and bounds come from BENCHMARK.json;
   the last line of standard output is one JSON object holding the
   metrics that file lists for the mode (end_to_end untraced, per_layer
   traced). *)

module Json = Tb_obs.Json
module Clock = Tb_obs.Clock
module Metrics = Tb_obs.Metrics
module Trace = Tb_obs.Trace
module Cert = Tb_cert.Cert
module Graph = Tb_graph.Graph
module Sssp = Tb_graph.Sssp
module Spans = Benchkit.Spans
module Stats = Benchkit.Stats
module Verdict = Benchkit.Verdict
module W = Workload

let workloads =
  [ Fig2_ladder.workload; Ksp_routing.workload; Fattree_sparse.workload; Service_zipf.workload ]

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("suite: " ^ m);
      exit 2)
    fmt

let now_s () = Int64.to_float (Clock.now_ns ()) /. 1e9
let mb = 1048576.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | s -> ( match Json.of_string s with Ok j -> j | Error e -> die "%s: %s" path e)

let member_str field j = Option.bind (Json.member field j) Json.to_str
let member_float field j = Option.bind (Json.member field j) Json.to_float

(* ---- BENCHMARK.json: the metric definitions. ---- *)

type metric_def = { name : string; unit_ : string; better : string; bound : float option }

let metric_defs spec section =
  match Option.bind (Json.member section spec) Json.to_list with
  | None -> die "BENCHMARK.json has no %S list" section
  | Some l ->
    List.map
      (fun j ->
        match (member_str "name" j, member_str "unit" j, member_str "better" j) with
        | Some name, Some unit_, Some better ->
          { name; unit_; better; bound = member_float "bound" j }
        | _ -> die "BENCHMARK.json: malformed %s entry" section)
      l

(* ---- Goldens: per-op brackets at seed 42, keyed by the op's input. ---- *)

let read_golden path =
  let tbl = Hashtbl.create 512 in
  (if Sys.file_exists path then
     match Json.member "brackets" (read_json path) with
     | Some (Json.Obj kvs) ->
       List.iter
         (fun (k, v) ->
           match Option.map (List.map Json.to_float) (Json.to_list v) with
           | Some [ Some l; Some u ] -> Hashtbl.replace tbl k (l, u)
           | _ -> die "%s: bad bracket for %s" path k)
         kvs
     | _ -> die "%s: no \"brackets\" object" path);
  tbl

let write_golden path ~workload ~seed tbl =
  let kvs =
    Hashtbl.fold
      (fun k (l, u) acc -> (k, Json.List [ Json.Float l; Json.Float u ]) :: acc)
      tbl []
  in
  Json.write path
    (Json.Obj
       [
         ("workload", Json.String workload);
         ("seed", Json.Int seed);
         ("brackets", Json.Obj (List.sort compare kvs));
       ])

(* ---- Process-level readings. ---- *)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | s ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0) with
        | Some v -> v
        | None -> acc)
      0.0 (String.split_on_char '\n' s)

(* The program's counters, timers and histogram sums as one flat
   name -> value list; a timer contributes [name.ms] and [name.calls]. *)
let snapshot () =
  List.map (fun (n, c) -> (n, float_of_int c)) (Metrics.counter_snapshot ())
  @ List.concat_map
      (fun (n, (c, ms)) -> [ (n ^ ".ms", ms); (n ^ ".calls", float_of_int c) ])
      (Metrics.timer_snapshot ())
  @ List.map (fun (n, (_, sum)) -> (n ^ ".sum", sum)) (Metrics.histogram_snapshot ())

(* ---- The run. ---- *)

type options = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  chrome : string option;
  regen : bool;
}

type state = {
  mutable op_ns : float list;  (** untraced ops *)
  mutable cycle_totals : (int * float * float) list;
      (** per untraced cycle: ops, op ns, op allocation *)
  mutable traced_ns : float list;
  mutable attempted : int;
  mutable errors : int;
  mutable cert_failures : int;
  mutable messages : string list;
  mutable gaps : float list;
  mutable verify_ns : float;
  mutable verified : int;
  mutable rungs : (string * int) list;  (** solved results by rung, traced ops *)
  mutable replay_trees : int;
  mutable replay_ns : float;
  mutable replay_alloc : float;
  deltas : (string, float) Hashtbl.t;  (** program metrics over traced ops *)
  hit_ops : (int, unit) Hashtbl.t;  (** traced ops served from a cache tier *)
}

let note st msg = if List.length st.messages < 10 then st.messages <- msg :: st.messages

let add_deltas st before after =
  List.iter
    (fun (n, v) ->
      let d = v -. Option.value ~default:0.0 (List.assoc_opt n before) in
      if d <> 0.0 then
        Hashtbl.replace st.deltas n (d +. Option.value ~default:0.0 (Hashtbl.find_opt st.deltas n)))
    after

(* Price shortest-path trees the way the op's solver builds them:
   [Sssp.run] over the op's graph and lengths, once per source (at most
   64 sources). *)
let replay_sssp st (r : W.replay) =
  let g = r.W.graph in
  let scratch = Sssp.create_state (Graph.num_nodes g) in
  let max_len = ref 0.0 in
  for a = 0 to Bigarray.Array1.dim r.W.lengths - 1 do
    let l = Bigarray.Array1.get r.W.lengths a in
    if Float.is_finite l && l > !max_len then max_len := l
  done;
  Array.iteri
    (fun i src ->
      if i < 64 then begin
        let a0 = Gc.allocated_bytes () in
        let t0 = Clock.now_ns () in
        Sssp.run ~max_len:!max_len ~parallel:true g ~len:r.W.lengths ~src scratch;
        st.replay_ns <- st.replay_ns +. Int64.to_float (Clock.elapsed_ns t0);
        st.replay_alloc <- st.replay_alloc +. (Gc.allocated_bytes () -. a0);
        st.replay_trees <- st.replay_trees + 1
      end)
    r.W.sources

(* Untimed: the op's own checks, agreement with its golden bracket, and
   identical brackets wherever the same input recurs within the run. *)
let check st ~golden ~seen ~regen ~traced = function
  | Error msg ->
    st.errors <- st.errors + 1;
    note st ("raised: " ^ msg)
  | Ok { W.outcome = { W.error = Some msg; _ }; _ } ->
    st.errors <- st.errors + 1;
    note st ("error result: " ^ msg)
  | Ok r ->
    let o = r.W.outcome in
    let t0 = Clock.now_ns () in
    let golden_check =
      match Hashtbl.find_opt golden o.W.key with
      | Some (l, u) when not regen ->
        [ ("golden", Cert.agreement [ ("golden", l, u); ("run", o.W.lower, o.W.upper) ]) ]
      | _ -> []
    in
    let repeat_check =
      match Hashtbl.find_opt seen o.W.key with
      | Some (l, u) ->
        [
          ( "deterministic",
            if l = o.W.lower && u = o.W.upper then Ok ()
            else Error (Printf.sprintf "[%g, %g] then [%g, %g]" l u o.W.lower o.W.upper) );
        ]
      | None ->
        Hashtbl.replace seen o.W.key (o.W.lower, o.W.upper);
        []
    in
    let failed =
      List.filter (fun (_, v) -> v <> Ok ()) (r.W.verify () @ golden_check @ repeat_check)
    in
    st.verify_ns <- st.verify_ns +. Int64.to_float (Clock.elapsed_ns t0);
    st.verified <- st.verified + 1;
    if failed <> [] then begin
      st.cert_failures <- st.cert_failures + 1;
      List.iter
        (function
          | name, Error m -> note st (Printf.sprintf "%s %s: %s" o.W.key name m)
          | _, Ok () -> ())
        failed
    end;
    if regen then Hashtbl.replace golden o.W.key (o.W.lower, o.W.upper);
    if o.W.solved && o.W.lower > 0.0 then
      st.gaps <- ((o.W.upper /. o.W.lower) -. 1.0) :: st.gaps;
    if traced then begin
      if o.W.solved && o.W.rung <> "" then
        st.rungs <-
          (o.W.rung, 1 + Option.value ~default:0 (List.assoc_opt o.W.rung st.rungs))
          :: List.remove_assoc o.W.rung st.rungs;
      Option.iter (fun f -> replay_sssp st (f ())) r.W.replay
    end

let run_op spans op =
  let a0 = Gc.allocated_bytes () in
  let t0 = Clock.now_ns () in
  let res =
    try Ok (Spans.record spans "op" (fun () -> op spans))
    with e -> Error (Printexc.to_string e)
  in
  let ns = Int64.to_float (Clock.elapsed_ns t0) in
  (res, ns, Gc.allocated_bytes () -. a0)

(* Set up several times and keep the last: at least three times, then
   until two seconds have passed, at most 200 times. No forced
   collection between set-ups: 200 [Gc.full_major] calls here leave the
   major GC pacing the rest of the run differently (fig2-ladder then
   peaks at 150 MB instead of 27 MB). *)
let timed_setup (w : W.t) ~seed ~tmp =
  let spans = Spans.create () in
  let t_start = now_s () in
  let rec go times =
    let t0 = now_s () in
    let cycles = w.W.setup ~spans ~seed ~tmp in
    let times = (now_s () -. t0) :: times in
    let n = List.length times in
    if n >= 200 || (n >= 3 && now_s () -. t_start >= 2.0) then (cycles, times)
    else go times
  in
  go []

(* A scratch directory for the workload's stores, removed at exit. *)
let scratch_dir name =
  let root = ".benchsuite-tmp" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let d = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Sys.mkdir d 0o755;
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Sys.rmdir d;
      if Sys.readdir root = [||] then Sys.rmdir root);
  d

type metric = { value : float; unit_ : string; samples : int }

let m value unit_ samples = { value; unit_; samples }

(* Throughput and allocation are medians over the untraced cycles of
   each cycle's own rate, so one slow stretch of a shared machine, or
   one unusually hard random instance, moves them less than a pooled
   mean would. Latencies are pooled over every untraced op. The
   p90/p99/p99.9 entries only go to the --out report. *)
let end_to_end_metrics (w : W.t) st ~setup_times =
  let ms = Array.of_list (List.rev_map (fun ns -> ns /. 1e6) st.op_ns) in
  let n = Array.length ms in
  let cycles = Array.of_list st.cycle_totals in
  let per_cycle f = Stats.median (Array.map f cycles) in
  let pct q = m (Stats.percentile ms q) "ms" n in
  [
    ("setup_s", m (Stats.median (Array.of_list setup_times)) "s" (List.length setup_times));
    ("ops_per_s", m (per_cycle (fun (k, ns, _) -> ratio (float_of_int k) (ns /. 1e9))) "1/s" n);
    ("op_ms_p50", pct 0.5);
    ("op_ms_tail", pct w.W.tail_q);
    ("gap_mean", m (Stats.mean (Array.of_list st.gaps)) "ratio" (List.length st.gaps));
    ("peak_rss_mb", m (peak_rss_mb ()) "MB" 1);
    ("alloc_mb_per_op", m (per_cycle (fun (k, _, a) -> ratio a (float_of_int k)) /. mb) "MB" n);
    ("op_ms_p90", pct 0.9);
    ("op_ms_p99", pct 0.99);
    ("op_ms_p999", pct 0.999);
  ]

(* Program timers read at every span boundary of a traced op, so each
   is charged to the span it ran in: Kodialam's LP counts toward TM
   generation, not the solver. A timer read is one field load. *)
let probes () =
  Array.map
    (fun name ->
      let t = Metrics.timer name in
      fun () -> Metrics.timer_total_ms t)
    [| "fleischer.solve"; "simplex.solve"; "restricted.solve" |]

(* Per-layer metrics over the traced ops. Layer times are self times of
   the suite's spans, split further: [service.handle] minus the
   [service.solve_ms] histogram (the op's only solve) is the service
   overhead (hashing, cache, store), and solver time splits by the
   probes into Fleischer, simplex, Restricted, Llskr paths (the
   [routing.ksp] span minus Restricted) and the rest. *)
let layer_metrics st (spans : Spans.t) ~setup_spans =
  let traced = Array.of_list st.traced_ns in
  let nt = Array.length traced in
  let total_ms = Array.fold_left ( +. ) 0.0 traced /. 1e6 in
  let totals = Spans.totals spans.Spans.spans in
  let sum f names =
    List.fold_left
      (fun acc (name, t) -> if List.mem name names then acc +. f t else acc)
      0.0 totals
  in
  let self_ms = sum (fun t -> t.Spans.self_ns /. 1e6) in
  let alloc_mb names = ratio (sum (fun t -> t.Spans.self_alloc) names) (float_of_int nt) /. mb in
  let d name = Option.value ~default:0.0 (Hashtbl.find_opt st.deltas name) in
  let pct x = 100.0 *. ratio x total_ms in
  let per_op x = ratio x (float_of_int nt) in
  let tm = [ "tm.lm"; "tm.kodialam"; "tm.other" ] in
  let direct = [ "routing.ksp"; "throughput.of_tm"; "fleischer.solve" ] in
  let solvers = "service.handle" :: direct in
  let probe i = sum (fun t -> t.Spans.probed.(i)) solvers in
  let fleischer = probe 0 and simplex = probe 1 and restricted = probe 2 in
  let service_solve = d "service.solve_ms.sum" in
  let glue = self_ms [ "op" ] in
  let us_per_tree = ratio (st.replay_ns /. 1e3) (float_of_int st.replay_trees) in
  let trees = d "dijkstra.runs" in
  let solved = List.fold_left (fun acc (_, c) -> acc + c) 0 st.rungs in
  let rung r =
    m (100.0 *. ratio (float_of_int (Option.value ~default:0 (List.assoc_opt r st.rungs)))
                 (float_of_int solved))
      "%" solved
  in
  let untraced_mean = Stats.mean (Array.of_list st.op_ns) in
  let hits = d "service.cache.hits" and misses = d "service.cache.misses" in
  let all_op_ms = (List.fold_left ( +. ) 0.0 st.op_ns /. 1e6) +. total_ms in
  (* Median span of traced hits and misses, and of rendering: for the
     --out report only, since they read 0 off the service path. *)
  let median_ns name keep =
    List.filter_map
      (fun (sp : Spans.span) ->
        if sp.Spans.name = name && keep sp.Spans.op then Some (Spans.duration_ns sp) else None)
      spans.Spans.spans
    |> Array.of_list |> Stats.median
  in
  let hit op = Hashtbl.mem st.hit_ops op in
  let topo_build_ms =
    match List.assoc_opt "topo.build" (Spans.totals setup_spans.Spans.spans) with
    | Some t -> t.Spans.self_ns /. 1e6
    | None -> 0.0
  in
  [
    ("trace.overhead_pct", m (100.0 *. (ratio (Stats.mean traced) untraced_mean -. 1.0)) "%" nt);
    ("topo.build_ms", m topo_build_ms "ms" 1);
    ("trace.coverage_pct", m (100.0 -. pct glue) "%" nt);
    ("trace.dropped", m (float_of_int (Trace.dropped ())) "count" 1);
    ("tm.share_pct", m (pct (self_ms tm)) "%" nt);
    ("request.share_pct", m (pct (self_ms [ "service.request" ])) "%" nt);
    ("service.share_pct", m (pct (self_ms [ "service.handle" ] -. service_solve)) "%" nt);
    ("render.share_pct", m (pct (self_ms [ "service.render" ])) "%" nt);
    ("fleischer.share_pct", m (pct fleischer) "%" nt);
    ("simplex.share_pct", m (pct simplex) "%" nt);
    ("restricted.share_pct", m (pct restricted) "%" nt);
    ("routing.paths_share_pct", m (pct (self_ms [ "routing.ksp" ] -. restricted)) "%" nt);
    ( "solve.other_share_pct",
      m (pct (service_solve +. self_ms [ "throughput.of_tm"; "fleischer.solve" ]
              -. fleischer -. simplex))
        "%" nt );
    ("glue.share_pct", m (pct glue) "%" nt);
    ("sssp.share_est_pct", m (pct (trees *. us_per_tree /. 1e3)) "%" nt);
    ("sssp.us_per_tree", m us_per_tree "us" st.replay_trees);
    ( "sssp.alloc_kb_per_tree",
      m (ratio (st.replay_alloc /. 1024.0) (float_of_int st.replay_trees)) "KB" st.replay_trees );
    ("sssp.trees_per_op", m (per_op trees) "count" nt);
    ( "fleischer.ms_per_solve",
      m (ratio (d "fleischer.solve.ms") (d "fleischer.solve.calls")) "ms"
        (int_of_float (d "fleischer.solve.calls")) );
    ("fleischer.phases_per_op", m (per_op (d "fleischer.phases")) "count" nt);
    ("restricted.phases_per_op", m (per_op (d "restricted.phases")) "count" nt);
    ("simplex.pivots_per_op", m (per_op (d "simplex.pivots")) "count" nt);
    ( "cert.verify_us_per_op",
      m (ratio (st.verify_ns /. 1e3) (float_of_int st.verified)) "us" st.verified );
    ("cert.share_pct", m (100.0 *. ratio (st.verify_ns /. 1e6) all_op_ms) "%" st.verified);
    ("service.hit_rate", m (ratio hits (hits +. misses)) "ratio" (int_of_float (hits +. misses)));
    ("service.evictions_per_op", m (per_op (d "service.cache.evictions")) "count" nt);
    ( "service.store_appends_per_op",
      m (per_op (d "service.solves" -. d "service.errors")) "count" nt );
    ("harness.retries_per_op", m (per_op (d "harness.retries")) "count" nt);
    ("harness.degradations_per_op", m (per_op (d "harness.degradations")) "count" nt);
    ("harness.rung_exact_pct", rung "exact");
    ("harness.rung_fptas_pct", rung "fptas");
    ("harness.rung_cuts_pct", rung "cuts");
    ("alloc.tm_mb_per_op", m (alloc_mb tm) "MB" nt);
    ("alloc.request_mb_per_op", m (alloc_mb [ "service.request" ]) "MB" nt);
    ("alloc.handle_mb_per_op", m (alloc_mb [ "service.handle" ]) "MB" nt);
    ("alloc.render_mb_per_op", m (alloc_mb [ "service.render" ]) "MB" nt);
    ("alloc.solver_mb_per_op", m (alloc_mb direct) "MB" nt);
    ("service.hit_us_p50", m (median_ns "service.handle" hit /. 1e3) "us" nt);
    ("service.miss_ms_p50", m (median_ns "service.handle" (fun op -> not (hit op)) /. 1e6) "ms" nt);
    ("service.render_us_p50", m (median_ns "service.render" (fun _ -> true) /. 1e3) "us" nt);
  ]

let finite v = if Float.is_finite v then v else 0.0

let metric_json ?def x =
  Json.Obj
    ([
       ("value", Json.Float (finite x.value));
       ("unit", Json.String x.unit_);
     ]
    @
    match def with
    | None -> []
    | Some d ->
      [ ("samples", Json.Int x.samples); ("better", Json.String d.better) ]
      @ Option.fold ~none:[] ~some:(fun b -> [ ("bound", Json.Float b) ]) d.bound)

let run opts =
  let w = opts.workload in
  let defs = metric_defs (read_json "BENCHMARK.json") (if opts.trace then "per_layer" else "end_to_end") in
  let golden_file = Filename.concat "benchsuite/golden" (w.W.name ^ ".json") in
  let golden = if opts.regen then Hashtbl.create 512 else read_golden golden_file in
  let tmp = scratch_dir w.W.name in
  let cycles, setup_times = timed_setup w ~seed:opts.seed ~tmp in
  let n_cycles = Array.length cycles in
  (* A traced run sets up once more with spans on, to time topology
     construction. *)
  let setup_spans = Spans.create () in
  if opts.trace then begin
    setup_spans.Spans.enabled <- true;
    ignore (w.W.setup ~spans:setup_spans ~seed:opts.seed ~tmp)
  end;
  Gc.full_major ();
  (* Warm-up: the first op of the first cycle, in throwaway state. *)
  (let ops, cleanup = cycles.(0) () in
   ignore (run_op (Spans.create ()) ops.(0));
   cleanup ());
  let st =
    {
      op_ns = []; cycle_totals = []; traced_ns = []; attempted = 0; errors = 0;
      cert_failures = 0; messages = []; gaps = []; verify_ns = 0.0; verified = 0;
      rungs = []; replay_trees = 0; replay_ns = 0.0; replay_alloc = 0.0;
      deltas = Hashtbl.create 64; hit_ops = Hashtbl.create 1024;
    }
  in
  let seen = Hashtbl.create 1024 in
  let spans = Spans.create ~probes:(probes ()) () in
  if opts.trace then Trace.set_capacity (1 lsl 18);
  let t_start = now_s () in
  let cycle = ref 0 in
  let continue () =
    if opts.regen then !cycle < n_cycles
    else !cycle < 2 || now_s () -. t_start < opts.seconds
  in
  while continue () do
    (* A traced run alternates untraced and traced cycles; the
       difference in per-op time is the tracing overhead. *)
    let traced = opts.trace && !cycle mod 2 = 1 in
    let ops, cleanup = cycles.(!cycle mod n_cycles) () in
    let cycle_ns = ref 0.0 and cycle_alloc = ref 0.0 in
    Array.iter
      (fun op ->
        spans.Spans.op <- st.attempted;
        st.attempted <- st.attempted + 1;
        let before = if traced then snapshot () else [] in
        if traced then begin
          spans.Spans.enabled <- true;
          Trace.enable ()
        end;
        let res, ns, alloc = run_op spans op in
        spans.Spans.enabled <- false;
        Trace.disable ();
        if traced then begin
          add_deltas st before (snapshot ());
          st.traced_ns <- ns :: st.traced_ns;
          match res with
          | Ok r when not r.W.outcome.W.solved -> Hashtbl.replace st.hit_ops spans.Spans.op ()
          | _ -> ()
        end
        else begin
          st.op_ns <- ns :: st.op_ns;
          cycle_ns := !cycle_ns +. ns;
          cycle_alloc := !cycle_alloc +. alloc
        end;
        check st ~golden ~seen ~regen:opts.regen ~traced res)
      ops;
    if not traced then
      st.cycle_totals <- (Array.length ops, !cycle_ns, !cycle_alloc) :: st.cycle_totals;
    cleanup ();
    incr cycle
  done;
  if opts.regen then begin
    write_golden golden_file ~workload:w.W.name ~seed:opts.seed golden;
    Printf.printf "wrote %d brackets to %s\n" (Hashtbl.length golden) golden_file
  end;
  Option.iter Trace.write opts.chrome;
  let e2e = end_to_end_metrics w st ~setup_times in
  let layers = if opts.trace then layer_metrics st spans ~setup_spans else [] in
  let computed = e2e @ layers in
  let reported =
    List.map
      (fun d ->
        match List.assoc_opt d.name computed with
        | None -> die "BENCHMARK.json lists %S, which the suite does not compute" d.name
        | Some x when x.unit_ <> d.unit_ ->
          die "%S is in %s here but in %s in BENCHMARK.json" d.name x.unit_ d.unit_
        | Some x -> (d, x))
      defs
  in
  let failed = st.errors + st.cert_failures in
  let correct = failed = 0 in
  Printf.printf "%s seed %d: %d ops in %d cycles%s, %d errors, %d failed checks\n"
    w.W.name opts.seed st.attempted !cycle
    (if opts.trace then Printf.sprintf " (%d traced)" (!cycle / 2) else "")
    st.errors st.cert_failures;
  List.iter
    (fun (d, x) ->
      Printf.printf "  %-30s %14.6g %-6s n=%d\n" d.name x.value x.unit_ x.samples)
    reported;
  (match Stats.tail_quantile (List.length st.op_ns) with
  | Some q when q >= w.W.tail_q -> ()
  | _ when opts.trace -> ()
  | _ ->
    Printf.printf "  note: op_ms_tail is p%g over %d ops, fewer than 10 beyond it\n"
      (100.0 *. w.W.tail_q) (List.length st.op_ns));
  List.iter (fun msg -> prerr_endline ("suite: " ^ msg)) (List.rev st.messages);
  let attempted = float_of_int st.attempted in
  Option.iter
    (fun path ->
      Json.write path
        (Json.Obj
           [
             ("workload", Json.String w.W.name);
             ("seed", Json.Int opts.seed);
             ("seconds", Json.Float opts.seconds);
             ("trace", Json.Bool opts.trace);
             ("cycles", Json.Int !cycle);
             ("correct", Json.Bool correct);
             ("attempted", Json.Int st.attempted);
             ("failed", Json.Int failed);
             ("error_rate", Json.Float (ratio (float_of_int st.errors) attempted));
             ("cert_fail_rate", Json.Float (ratio (float_of_int st.cert_failures) attempted));
             ("tail_quantile", Json.Float w.W.tail_q);
             ("metrics", Json.Obj (List.map (fun (d, x) -> (d.name, metric_json ~def:d x)) reported));
             ( "computed",
               Json.Obj
                 (List.map
                    (fun (n, x) ->
                      ( n,
                        Json.Obj
                          [
                            ("value", Json.Float (finite x.value));
                            ("unit", Json.String x.unit_);
                            ("samples", Json.Int x.samples);
                          ] ))
                    computed) );
             ("failures", Json.List (List.rev_map (fun s -> Json.String s) st.messages));
           ]))
    opts.out;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int st.attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map (fun (d, x) -> (d.name, metric_json x)) reported));
          ]))

(* ---- suite compare ---- *)

let compare_reports args =
  let rec split acc = function
    | "vs" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> die "compare: expected BASE.json... vs NEW.json..."
  in
  let base, next = split [] args in
  if base = [] || next = [] then die "compare: both sides need at least one report";
  let load files =
    List.map
      (fun f ->
        let j = read_json f in
        match (member_str "workload" j, Json.member "metrics" j) with
        | Some w, Some (Json.Obj ms) -> (w, ms)
        | _ -> die "%s: not a suite report" f)
      files
  in
  let base = load base and next = load next in
  let values reports workload name =
    List.filter_map
      (fun (w, ms) ->
        if w <> workload then None else Option.bind (List.assoc_opt name ms) (member_float "value"))
      reports
    |> Array.of_list
  in
  let regressions = ref 0 in
  Printf.printf "%-15s %-16s %-30s %-30s %9s %6s  %s\n" "workload" "metric"
    "base median [q1, q3]" "new median [q1, q3]" "better by" "wins" "verdict";
  List.iter
    (fun workload ->
      let _, metrics = List.find (fun (w, _) -> w = workload) base in
      List.iter
        (fun (name, j) ->
          let b = values base workload name and n = values next workload name in
          let bound = member_float "bound" j in
          let better = Option.bind (member_str "better" j) Verdict.better_of_string in
          if Array.length b > 0 && Array.length n > 0 then begin
            let describe xs =
              let q1, q2, q3 = Stats.quartiles xs in
              Printf.sprintf "%.6g [%.6g, %.6g] n=%d" q2 q1 q3 (Array.length xs)
            in
            let verdict, change, wins =
              match (better, bound) with
              | Some better, Some bound ->
                let j = Verdict.judge ~better ~bound ~base:b ~next:n in
                if j.Verdict.verdict = Verdict.Regression then incr regressions;
                ( Printf.sprintf "%s (bound %g%%)" (Verdict.verdict_name j.Verdict.verdict)
                    (100.0 *. bound),
                  Printf.sprintf "%+.1f%%" (-100.0 *. j.Verdict.worse_by),
                  Printf.sprintf "%d/%d" j.Verdict.wins j.Verdict.pairs )
              | _ -> ("-", "", "")
            in
            Printf.printf "%-15s %-16s %-30s %-30s %9s %6s  %s\n" workload name (describe b)
              (describe n) change wins verdict
          end)
        metrics)
    (List.sort_uniq compare (List.map fst base));
  if !regressions > 0 then begin
    Printf.printf "%d regression(s)\n" !regressions;
    exit 1
  end

(* ---- Command line. ---- *)

let usage () =
  die
    "usage: suite.exe --workload {%s} [--seed S] [--seconds N] [--trace 0|1] \
     [--out F] [--chrome F] [--regen-golden]\n\
    \       suite.exe compare BASE.json... vs NEW.json..."
    (String.concat "|" (List.map (fun (w : W.t) -> w.W.name) workloads))

let parse_run args =
  let workload = ref None and seed = ref 42 and seconds = ref 20.0 and trace = ref false in
  let out = ref None and chrome = ref None and regen = ref false in
  let int_arg flag v = match int_of_string_opt v with Some n -> n | None -> die "%s: bad value %S" flag v in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match List.find_opt (fun (w : W.t) -> w.W.name = v) workloads with
      | Some w -> workload := Some w
      | None -> usage ());
      go rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_int (int_arg "--seconds" v); go rest
    | "--trace" :: v :: rest -> trace := int_arg "--trace" v <> 0; go rest
    | "--out" :: v :: rest -> out := Some v; go rest
    | "--chrome" :: v :: rest -> chrome := Some v; go rest
    | "--regen-golden" :: rest -> regen := true; go rest
    | _ -> usage ()
  in
  go args;
  match !workload with
  | None -> usage ()
  | Some workload ->
    {
      workload; seed = !seed; seconds = !seconds; trace = !trace; out = !out;
      chrome = !chrome; regen = !regen;
    }

let () =
  (* One process, one domain: the solvers' gated parallel maps run
     sequentially. *)
  Tb_prelude.Parallel.enabled := false;
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> compare_reports rest
  | args -> run (parse_run args)
