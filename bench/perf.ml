(* Performance record: Fleischer-dominated workload sets timed with a
   warmup run plus median-of-N trials, written to a JSON file in a
   stable schema. Speed comparisons between two commits are made by
   `make bench-pairs`, which runs both in alternating pairs on one
   machine; the medians here are absolute readings of one run.

   Usage (via bench/main.exe):
     bench/main.exe perf                full trial counts
     bench/main.exe perf --quick        fewer trials, smaller workloads
     bench/main.exe perf --scale        ~100k-switch certified brackets
     bench/main.exe perf --scale-smoke  ~10k-switch CI gate

   quick/full write BENCH_perf.json; the scale modes write
   BENCH_perf_scale.json (single-trial runs whose success metric is the
   certificate verdicts, not a median).

   Scale modes enforce a wall-clock budget (TOPOBENCH_SCALE_BUDGET_S,
   default 2400 s for --scale and 600 s for --scale-smoke) shared by
   all workloads of the run, passed to the solver as a deadline; a
   budget overrun or a red certificate exits non-zero, so CI can gate
   on it. *)

module Json = Tb_obs.Json
module Clock = Tb_obs.Clock
module Metrics = Tb_obs.Metrics
module Deadline = Tb_obs.Deadline
module Rng = Tb_prelude.Rng
module Stats = Tb_prelude.Stats
module Graph = Tb_graph.Graph
module Commodity = Tb_flow.Commodity
module Cert = Tb_cert.Cert
module Catalog = Tb_topo.Catalog

type mode = Quick | Full | Scale | Scale_smoke

let mode_name = function
  | Quick -> "quick"
  | Full -> "full"
  | Scale -> "scale"
  | Scale_smoke -> "scale-smoke"

let is_scale_mode = function Scale | Scale_smoke -> true | _ -> false
let perf_file = "BENCH_perf.json"
let scale_file = "BENCH_perf_scale.json"

type workload = {
  name : string;
  descr : string;
  (* Fresh per-trial work; setup cost (topology + TM construction) is
     paid once, outside the timed region. *)
  run : unit -> unit;
  (* Untimed post-pass after the trials (certificate verification over
     the last trial's result). Returns extra JSON fields and whether
     every check came back green. *)
  post : (unit -> (string * Json.t) list * bool) option;
}

let plain ~name ~descr run = { name; descr; run; post = None }

(* The counters whose per-trial deltas are recorded alongside seconds:
   they explain *why* a wall-clock number moved. ("dijkstra.runs" is
   bumped by the solvers, not by [Sssp]: it counts Fleischer's trees,
   on either workhorse, and Colgen's pricing runs. Workloads that call
   [Sssp] directly, the dijkstra-rr* rows, record no counters.) *)
let tracked_counters =
  [ "dijkstra.runs"; "fleischer.phases"; "fleischer.solves" ]

(* ---- Memory observability (satellite: peak RSS + allocation). ---- *)

(* Peak resident set of the process so far, from /proc (Linux); 0 where
   unavailable. Monotone high-water mark, so the per-workload value is
   "peak over the run up to and including this workload". *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception _ -> 0.0
  | ic ->
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          try
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
          with _ -> 0.0
        else loop ()
    in
    let v = loop () in
    close_in ic;
    v

(* ---- Workload definitions. ---- *)

let lm_workload ~name ~n ~degree ~tol =
  let rng = Rng.make 7 in
  let g = Tb_graph.Equipment.random_regular rng ~n ~degree in
  let topo =
    Tb_topo.Topology.switch_centric ~name:"perf" ~params:"" ~hosts_per_switch:2
      g
  in
  let cs = Tb_tm.Tm.commodities (Tb_tm.Synthetic.longest_matching topo) in
  plain ~name
    ~descr:
      (Printf.sprintf "Fleischer tol=%.2f on random regular n=%d d=%d, LM TM"
         tol n degree)
    (fun () -> ignore (Tb_flow.Fleischer.solve ~tol g cs))

(* Shared family/size spec grammar (same parser as the CLI and the
   service layer), so bench workload definitions stay in sync with it. *)
let topo_of_spec s =
  match Catalog.spec_of_string s with
  | Ok sp -> Catalog.build_spec sp
  | Error e -> failwith e

let hypercube_workload ~name ~dim ~tol =
  let topo = topo_of_spec (Printf.sprintf "hypercube:%d" dim) in
  let g = topo.Tb_topo.Topology.graph in
  let cs = Tb_tm.Tm.commodities (Tb_tm.Synthetic.longest_matching topo) in
  plain ~name
    ~descr:
      (Printf.sprintf "Fleischer tol=%.2f on hypercube dim=%d, LM TM" tol dim)
    (fun () -> ignore (Tb_flow.Fleischer.solve ~tol g cs))

let dijkstra_workload ~name ~n ~degree ~reps =
  let rng = Rng.make 11 in
  let g = Tb_graph.Equipment.random_regular rng ~n ~degree in
  let num_arcs = Graph.num_arcs g in
  (* Deterministic non-uniform lengths so the heap sees real churn. *)
  let len = Graph.make_floats num_arcs in
  for a = 0 to num_arcs - 1 do
    len.{a} <- 1.0 +. (float_of_int ((a * 2654435761) land 255) /. 64.0)
  done;
  let st = Tb_graph.Sssp.create_state n in
  plain ~name
    ~descr:
      (Printf.sprintf "%d Dijkstra runs on random regular n=%d d=%d" reps n
         degree)
    (fun () ->
      for i = 0 to reps - 1 do
        Tb_graph.Sssp.dijkstra g ~len ~src:(i mod n) st
      done)

(* ---- Scale workloads: certified brackets on datacenter sizes. ---- *)

(* A sparse seeded demand set: [pairs] distinct src->dst commodities of
   unit demand. Dense TMs at 100k switches are out of reach by volume
   alone (the LM generator is Hungarian, O(n^3)); the scale story the
   ISSUE targets is the *solver* scaling, which a sparse TM exercises
   fully (every phase still builds shortest-path trees over the whole
   graph). *)
let sparse_commodities ~seed ~pairs n =
  let rng = Rng.make (0x5ca1e + seed) in
  let seen = Hashtbl.create (2 * pairs) in
  let out = ref [] in
  let count = ref 0 in
  while !count < pairs do
    let s = Rng.int rng n in
    let t = Rng.int rng n in
    if s <> t && not (Hashtbl.mem seen (s, t)) then begin
      Hashtbl.add seen (s, t) ();
      out := Commodity.make ~src:s ~dst:t ~demand:1.0 :: !out;
      incr count
    end
  done;
  Array.of_list (List.rev !out)

let verify_bracket g cs (r : Tb_flow.Fleischer.result) =
  let t0 = Clock.now_ns () in
  let checks =
    [
      ( "primal_feasible",
        Cert.primal_feasible g cs ~throughput:r.lower ~flow:r.flow );
      ( "dual_bound_valid",
        Cert.dual_bound_valid g cs ~lengths:r.lengths ~upper:r.upper );
      ( "bounds_ordered",
        if r.lower <= r.upper *. (1.0 +. 1e-9) then Ok ()
        else
          Error
            (Printf.sprintf "lower %g exceeds upper %g" r.lower r.upper) );
    ]
  in
  let verify_s = Clock.ns_to_ms (Clock.elapsed_ns t0) /. 1000.0 in
  let ok = List.for_all (fun (_, v) -> v = Ok ()) checks in
  let fields =
    [
      ("lower", Json.Float r.lower);
      ("upper", Json.Float r.upper);
      ("phases", Json.Int r.phases);
      ("verify_s", Json.Float verify_s);
      ( "certs",
        Json.Obj
          (List.map
             (fun (name, v) ->
               ( name,
                 Json.String (match v with Ok () -> "ok" | Error m -> m) ))
             checks) );
    ]
  in
  (fields, ok)

(* A scale-mode workload: one certified solve, no warmup. [deadline] is
   shared by every scale workload of the run: it is the whole run's
   wall budget, not a per-workload one. *)
let bracket_workload ~deadline ~name ~spec_str ~pairs ~tol =
  (match Catalog.spec_of_string spec_str with
  | Error e -> failwith e
  | Ok sp ->
    (match Catalog.estimate sp with
    | Some e ->
      Printf.printf
        "%-26s building %s: ~%d switches, ~%d edges, ~%.0f MB flat\n%!" name
        spec_str e.Catalog.nodes e.Catalog.edges
        (float_of_int e.Catalog.flat_bytes /. 1048576.0)
    | None -> Printf.printf "%-26s building %s\n%!" name spec_str));
  let t0 = Clock.now_ns () in
  let topo = topo_of_spec spec_str in
  let g = topo.Tb_topo.Topology.graph in
  let setup_s = Clock.ns_to_ms (Clock.elapsed_ns t0) /. 1000.0 in
  Printf.printf "%-26s built: %d switches, %d edges in %.1f s (rss %.0f MB)\n%!"
    name (Graph.num_nodes g) (Graph.num_edges g) setup_s (peak_rss_mb ());
  let cs = sparse_commodities ~seed:1 ~pairs (Graph.num_nodes g) in
  let last = ref None in
  {
    name;
    descr =
      Printf.sprintf "Fleischer tol=%.2f on %s, %d sparse commodities" tol
        spec_str pairs;
    run =
      (fun () -> last := Some (Tb_flow.Fleischer.solve ~deadline ~tol g cs));
    post =
      Some
        (fun () ->
          match !last with
          | None -> ([], false)
          | Some r ->
            let fields, ok = verify_bracket g cs r in
            (("setup_s", Json.Float setup_s) :: fields, ok));
  }

let getenv_float name default =
  match Option.bind (Sys.getenv_opt name) float_of_string_opt with
  | Some v -> v
  | None -> default

let workloads mode =
  match mode with
  | Quick ->
    [
      dijkstra_workload ~name:"dijkstra-rr128" ~n:128 ~degree:8 ~reps:2000;
      lm_workload ~name:"fleischer-rr64-lm" ~n:64 ~degree:6 ~tol:0.08;
      lm_workload ~name:"fleischer-rr128-lm" ~n:128 ~degree:8 ~tol:0.08;
      hypercube_workload ~name:"fleischer-hypercube6-lm" ~dim:6 ~tol:0.08;
    ]
  | Full ->
    [
      dijkstra_workload ~name:"dijkstra-rr128" ~n:128 ~degree:8 ~reps:2000;
      dijkstra_workload ~name:"dijkstra-rr512" ~n:512 ~degree:10 ~reps:500;
      lm_workload ~name:"fleischer-rr64-lm" ~n:64 ~degree:6 ~tol:0.08;
      lm_workload ~name:"fleischer-rr128-lm" ~n:128 ~degree:8 ~tol:0.08;
      lm_workload ~name:"fleischer-rr256-lm" ~n:256 ~degree:10 ~tol:0.08;
      hypercube_workload ~name:"fleischer-hypercube6-lm" ~dim:6 ~tol:0.08;
    ]
  | Scale_smoke ->
    let budget = getenv_float "TOPOBENCH_SCALE_BUDGET_S" 600.0 in
    let deadline = Deadline.start ~budget_ms:(budget *. 1000.0) in
    [
      bracket_workload ~deadline ~name:"fattree-10k-smoke"
        ~spec_str:"fattree:88" ~pairs:8 ~tol:0.3;
    ]
  | Scale ->
    let budget = getenv_float "TOPOBENCH_SCALE_BUDGET_S" 2400.0 in
    let deadline = Deadline.start ~budget_ms:(budget *. 1000.0) in
    List.map
      (fun (name, spec_str) ->
        bracket_workload ~deadline ~name ~spec_str ~pairs:8 ~tol:0.3)
      Catalog.scale_specs

let counter_deltas before after =
  List.filter_map
    (fun name ->
      let get snap =
        match List.assoc_opt name snap with Some v -> v | None -> 0
      in
      let d = get after - get before in
      if d <> 0 then Some (name, d) else None)
    tracked_counters

(* Bytes allocated so far: minor words plus words allocated directly in
   the major heap (major minus promoted). [Gc.allocated_bytes] is not
   used: on OCaml 5 it counts minor words only as of the last minor
   collection, so a trial that fits in the minor heap reads near 0. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  float_of_int (Sys.word_size / 8) *. (Gc.minor_words () +. major -. promoted)

let time_trial run =
  let before = Metrics.counter_snapshot () in
  let a0 = allocated_bytes () in
  let t0 = Clock.now_ns () in
  run ();
  let ms = Clock.ns_to_ms (Clock.elapsed_ns t0) in
  let alloc = allocated_bytes () -. a0 in
  let after = Metrics.counter_snapshot () in
  (ms, counter_deltas before after, alloc)

let run_mode mode =
  let trials = match mode with Quick -> 5 | Full -> 9 | _ -> 1 in
  let scale = is_scale_mode mode in
  let ws = workloads mode in
  if scale then
    Printf.printf "==== perf bench (%s: single certified trial, no warmup) ====\n%!"
      (mode_name mode)
  else
    Printf.printf "==== perf bench (%s: warmup + median of %d trials) ====\n%!"
      (mode_name mode) trials;
  let failed = ref [] in
  let results =
    List.map
      (fun w ->
        match
          try
            if not scale then ignore (time_trial w.run) (* warmup *);
            Ok (Array.init trials (fun _ -> time_trial w.run))
          with Deadline.Timed_out _ as e -> Error e
        with
        | Error e ->
          let msg = Printexc.to_string e in
          Printf.printf "%-26s TIMED OUT: %s\n%!" w.name msg;
          failed := (w.name, "budget exceeded: " ^ msg) :: !failed;
          (w, 0.0, [||], [], [ ("timed_out", Json.Bool true) ])
        | Ok samples ->
          let ms = Array.map (fun (m, _, _) -> m) samples in
          let med = Stats.median ms in
          (* Counter deltas are deterministic per trial; report the
             last, likewise the allocation volume. *)
          let _, counters, alloc = samples.(trials - 1) in
          let extras, certs_ok =
            match w.post with
            | None -> ([], true)
            | Some post -> post ()
          in
          if not certs_ok then
            failed := (w.name, "certificate check failed") :: !failed;
          let rss = peak_rss_mb () in
          Printf.printf "%-26s median %8.1f ms  alloc %7.1f MB  rss %6.0f MB%s\n%!"
            w.name med (alloc /. 1048576.0) rss
            (if w.post = None then ""
             else if certs_ok then "  certs ok"
             else "  CERTS RED");
          let extras =
            extras
            @ [
                ("alloc_bytes", Json.Float alloc);
                ("peak_rss_mb", Json.Float rss);
              ]
          in
          (w, med, ms, counters, extras))
      ws
  in
  let total_med =
    List.fold_left (fun acc (_, med, _, _, _) -> acc +. med) 0.0 results
  in
  Printf.printf "%-26s        %8.1f ms\n%!" "total(median-sum)" total_med;
  let doc =
    Json.Obj
      [
        ("mode", Json.String (mode_name mode));
        ("trials", Json.Int trials);
        ( "workloads",
          Json.Obj
            (List.map
               (fun ((w : workload), med, ms, counters, extras) ->
                 ( w.name,
                   Json.Obj
                     ([
                        ("descr", Json.String w.descr);
                        ("median_ms", Json.Float med);
                        ( "trials_ms",
                          Json.List
                            (Array.to_list
                               (Array.map (fun x -> Json.Float x) ms)) );
                        ( "counters",
                          Json.Obj
                            (List.map
                               (fun (n, d) -> (n, Json.Int d))
                               counters) );
                      ]
                     @ extras) ))
               results) );
        ( "totals",
          Json.Obj
            [
              ("median_sum_ms", Json.Float total_med);
              ("peak_rss_mb", Json.Float (peak_rss_mb ()));
            ] );
      ]
  in
  let file = if scale then scale_file else perf_file in
  Json.write file doc;
  Printf.printf "wrote %s\n%!" file;
  if !failed <> [] then begin
    List.iter
      (fun (name, why) -> Printf.eprintf "perf: FAILED %s: %s\n" name why)
      (List.rev !failed);
    exit 1
  end

let run ~quick = run_mode (if quick then Quick else Full)
