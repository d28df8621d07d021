module Rng = Tb_prelude.Rng
module Graph = Tb_graph.Graph
module Topology = Tb_topo.Topology
module Failures = Tb_topo.Failures
module Synthetic = Tb_tm.Synthetic
module Mcf = Tb_flow.Mcf
module Json = Tb_obs.Json
module Fault = Tb_harness.Fault
module Deadline = Tb_obs.Deadline
module Guard = Tb_harness.Guard
module Checkpoint = Tb_harness.Checkpoint
module Sweep = Tb_harness.Sweep
module Solve = Tb_harness.Solve

let check_float = Alcotest.(check (float 1e-9))

let small_topo () = Tb_topo.Hypercube.make ~hosts_per_switch:1 ~dim:3 ()

let tmp_path name =
  let path = Filename.temp_file ("tb_harness_" ^ name) ".json" in
  Sys.remove path;
  path

(* ---- Fault injection ---- *)

let draws fault n = List.init n (fun _ -> Fault.draw fault)

let test_fault_deterministic () =
  let mk () = Fault.make ~timeout_p:0.2 ~nan_p:0.2 ~exc_p:0.2 ~seed:7 () in
  Alcotest.(check bool)
    "same seed, same stream" true
    (draws (mk ()) 200 = draws (mk ()) 200);
  let other = Fault.make ~timeout_p:0.2 ~nan_p:0.2 ~exc_p:0.2 ~seed:8 () in
  Alcotest.(check bool)
    "different seed, different stream" false
    (draws (mk ()) 200 = draws other 200)

let test_fault_none_and_validation () =
  Alcotest.(check bool) "none never fires" true
    (List.for_all (( = ) None) (draws Fault.none 50));
  Alcotest.(check bool) "none inactive" false (Fault.active Fault.none);
  let bad = Invalid_argument "Fault.make: probabilities must be >= 0 and sum to <= 1" in
  Alcotest.check_raises "negative probability" bad (fun () ->
      ignore (Fault.make ~nan_p:(-0.1) ~seed:1 ()));
  Alcotest.check_raises "sum > 1" bad (fun () ->
      ignore (Fault.make ~timeout_p:0.6 ~exc_p:0.6 ~seed:1 ()))

let test_fault_rates () =
  let f = Fault.make ~timeout_p:0.5 ~seed:3 () in
  let fired =
    List.length (List.filter (( = ) (Some Fault.Timeout)) (draws f 1000))
  in
  Alcotest.(check bool)
    (Printf.sprintf "about half fire (%d/1000)" fired)
    true
    (fired > 400 && fired < 600)

(* ---- Deadline ---- *)

let test_deadline_expires () =
  let d = Deadline.start ~budget_ms:0.0 in
  Alcotest.(check bool) "already expired" true (Deadline.expired d);
  (match Deadline.check d with
  | () -> Alcotest.fail "check did not raise"
  | exception Deadline.Timed_out _ -> ());
  let forever = Deadline.start ~budget_ms:infinity in
  Deadline.check forever;
  Alcotest.(check bool) "infinite budget never expires" false
    (Deadline.expired forever)

(* A zero budget must abort a real Fleischer solve through the
   [?on_check] hook, not hang. *)
let test_deadline_aborts_fleischer () =
  let topo = small_topo () in
  let cs = Tb_tm.Tm.commodities (Synthetic.all_to_all topo) in
  let d = Deadline.start ~budget_ms:0.0 in
  match
    Tb_flow.Fleischer.solve ~tol:0.04 ~on_check:(Deadline.sink d)
      topo.Topology.graph cs
  with
  | _ -> Alcotest.fail "deadline did not fire"
  | exception Deadline.Timed_out { budget_ms; _ } ->
    check_float "budget recorded" 0.0 budget_ms

(* ---- Guard ---- *)

let test_guard () =
  Guard.finite "ok" 1.5;
  Guard.finite_array "ok" [| 0.0; 3.25 |];
  Guard.bracket "ok" ~lower:1.0 ~upper:1.0000001;
  Guard.bracket "inf upper ok" ~lower:0.0 ~upper:infinity;
  let raises f =
    match f () with
    | () -> false
    | exception Guard.Invalid_number _ -> true
  in
  Alcotest.(check bool) "nan" true (raises (fun () -> Guard.finite "x" nan));
  Alcotest.(check bool) "inf" true
    (raises (fun () -> Guard.finite "x" infinity));
  Alcotest.(check bool) "nan in array" true
    (raises (fun () -> Guard.finite_array "x" [| 1.0; nan |]));
  Alcotest.(check bool) "nan lower" true
    (raises (fun () -> Guard.bracket "x" ~lower:nan ~upper:1.0));
  Alcotest.(check bool) "crossed bracket" true
    (raises (fun () -> Guard.bracket "x" ~lower:2.0 ~upper:1.0));
  Alcotest.(check bool) "negative lower" true
    (raises (fun () -> Guard.bracket "x" ~lower:(-0.5) ~upper:1.0))

(* ---- Checkpoint ---- *)

let test_checkpoint_roundtrip () =
  let path = tmp_path "roundtrip" in
  if Sys.file_exists path then Sys.remove path;
  let c = Checkpoint.load ~path in
  Alcotest.(check bool) "fresh store is empty" true
    (Checkpoint.find c "a" = None);
  Checkpoint.record c "a" (Json.Float 1.5);
  Checkpoint.record c "b" (Json.Obj [ ("v", Json.Int 2) ]);
  Checkpoint.record c "a" (Json.Float 2.5) (* overwrite *);
  let c' = Checkpoint.load ~path in
  Alcotest.(check bool) "overwrite persisted" true
    (Checkpoint.find c' "a" = Some (Json.Float 2.5));
  Alcotest.(check bool) "second key persisted" true
    (Checkpoint.find c' "b" = Some (Json.Obj [ ("v", Json.Int 2) ]));
  Alcotest.(check bool) "missing key" true (Checkpoint.find c' "zzz" = None);
  Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A foreign file (a version-1 document, or not JSON at all) loads as
   empty, and the first record replaces it: the file then holds exactly
   the header and that record, never the old bytes. *)
let test_checkpoint_corrupt () =
  let v1 =
    Json.to_string ~indent:true
      (Json.Obj
         [
           ("version", Json.Int 1);
           ("cells", Json.Obj [ ("a", Json.Float 1.5); ("b", Json.Float 2.5) ]);
           ("extra", Json.Obj [ ("w", Json.Int 1) ]);
         ])
  in
  List.iter
    (fun (name, contents) ->
      let path = tmp_path "corrupt" in
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      let c = Checkpoint.load ~path in
      Alcotest.(check bool) (name ^ " loads empty") true
        (Checkpoint.find c "a" = None
        && Checkpoint.find c "b" = None
        && Checkpoint.extra c = None);
      Checkpoint.record c "z" (Json.Int 3);
      Alcotest.(check string) (name ^ " replaced, not appended to")
        "{\"checkpoint\":2}\n{\"key\":\"z\",\"value\":3}\n" (read_file path);
      let c' = Checkpoint.load ~path in
      Alcotest.(check bool) (name ^ " record reads back") true
        (Checkpoint.find c' "z" = Some (Json.Int 3)
        && Checkpoint.find c' "a" = None);
      Sys.remove path)
    [ ("v1 document", v1); ("non-JSON", "{ not json at all") ]

(* One line per record: 1,000 records leave exactly the header and
   1,000 record lines, where a whole-document rewrite per record wrote
   O(N^2) bytes. *)
let test_checkpoint_linear () =
  let path = tmp_path "linear" in
  let c = Checkpoint.load ~path in
  let value = Json.String (String.make 200 'x') in
  let bound = ref (String.length {|{"checkpoint":2}|} + 1) in
  for i = 1 to 1000 do
    let key = Printf.sprintf "cell-%04d" i in
    Checkpoint.record c key value;
    bound :=
      !bound
      + String.length
          (Json.to_string
             (Json.Obj [ ("key", Json.String key); ("value", value) ]))
      + 1
  done;
  let size = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  Alcotest.(check bool)
    (Printf.sprintf "file %d bytes <= header + 1000 lines (%d)" size !bound)
    true (size <= !bound)

(* ---- Sweep: checkpoint/kill/resume ---- *)

let sweep_cells counter =
  List.map
    (fun (key, v) ->
      {
        Sweep.key;
        run =
          (fun () ->
            incr counter;
            Json.Float v);
      })
    [ ("c1", 1.0); ("c2", 2.0); ("c3", 3.0); ("c4", 4.0) ]

let test_sweep_resume_identical () =
  let path = tmp_path "resume" in
  if Sys.file_exists path then Sys.remove path;
  (* The uninterrupted reference run (no checkpoint). *)
  let calls = ref 0 in
  let reference = Sweep.run (sweep_cells calls) in
  Alcotest.(check int) "reference computes all cells" 4 !calls;
  (* A run killed after two cells: simulate by raising from cell 3. *)
  let c = Checkpoint.load ~path in
  let killed = ref 0 in
  let dying =
    List.map
      (fun cell ->
        if cell.Sweep.key = "c3" then
          { cell with Sweep.run = (fun () -> failwith "killed") }
        else cell)
      (sweep_cells killed)
  in
  (match Sweep.run ~checkpoint:c dying with
  | _ -> Alcotest.fail "kill did not propagate"
  | exception Failure _ -> ());
  Alcotest.(check int) "two cells completed before the kill" 2 !killed;
  (* Resume: fresh process modelled by reloading the checkpoint file. *)
  let resumed_calls = ref 0 in
  let resumed =
    Sweep.run ~checkpoint:(Checkpoint.load ~path) (sweep_cells resumed_calls)
  in
  Alcotest.(check int) "resume recomputes only the missing cells" 2
    !resumed_calls;
  Alcotest.(check bool) "resumed output identical to uninterrupted run" true
    (resumed = reference);
  Sys.remove path

let test_sweep_interrupt () =
  let calls = ref 0 in
  Sweep.stop_requested := false;
  let cells =
    List.map
      (fun cell ->
        {
          cell with
          Sweep.run =
            (fun () ->
              let v = cell.Sweep.run () in
              if !calls >= 2 then Sweep.stop_requested := true;
              v);
        })
      (sweep_cells calls)
  in
  (match Sweep.run cells with
  | _ -> Alcotest.fail "stop flag ignored"
  | exception Sweep.Interrupted key ->
    Alcotest.(check string) "stops before the next cell" "c3" key);
  Sweep.stop_requested := false

(* ---- Warm-started sweep: kill/resume bit-identity ----

   The warm cache rides in the checkpoint's [extra] slot, persisted
   atomically with each cell record. So a warm sweep killed mid-run and
   resumed in a fresh process must produce bit-identical cell outputs
   to the uninterrupted warm run: the resumed cells see exactly the
   warm state the interrupted run had stored (via the JSON round-trip,
   which is bit-exact for finite floats). *)

module Warm = Tb_harness.Warm

(* Four cells of one topology whose solves chain dual lengths through
   [cache] under one key, as a failure sweep's cells do. The FPTAS rung
   is forced, where warm state matters; no deadline, so outputs are
   deterministic. *)
let warm_cells cache counter =
  let topo = small_topo () in
  let tm = Synthetic.all_to_all topo in
  let policy = Solve.policy_of ~tol:0.05 (Some Solve.Fptas) in
  List.map
    (fun key ->
      {
        Sweep.key;
        run =
          (fun () ->
            incr counter;
            Solve.outcome_to_json
              (Solve.throughput ~policy ~warm:(cache, "topo") topo tm));
      })
    [ "c1"; "c2"; "c3"; "c4" ]

let test_warm_sweep_resume_identical () =
  let path = tmp_path "warm_resume" in
  if Sys.file_exists path then Sys.remove path;
  (* Uninterrupted warm reference run. *)
  let ref_cache = Warm.create () in
  let calls = ref 0 in
  let reference = Sweep.run (warm_cells ref_cache calls) in
  Alcotest.(check int) "reference computes all cells" 4 !calls;
  Alcotest.(check bool) "warm chaining engaged" true (Warm.hits ref_cache >= 3);
  (* Killed after two cells, warm state checkpointed with them. *)
  let cp = Checkpoint.load ~path in
  let kill_cache = Warm.create () in
  let killed = ref 0 in
  let dying =
    List.map
      (fun cell ->
        if cell.Sweep.key = "c3" then
          { cell with Sweep.run = (fun () -> failwith "killed") }
        else cell)
      (warm_cells kill_cache killed)
  in
  let extra () = Warm.to_json kill_cache in
  (match Sweep.run ~checkpoint:cp ~extra dying with
  | _ -> Alcotest.fail "kill did not propagate"
  | exception Failure _ -> ());
  Alcotest.(check int) "two cells completed before the kill" 2 !killed;
  (* Resume in a "fresh process": reload the checkpoint, restore the
     warm cache from its extra slot, finish the sweep. *)
  let cp' = Checkpoint.load ~path in
  let resume_cache = Warm.create () in
  (match Checkpoint.extra cp' with
  | None -> Alcotest.fail "checkpoint lost the warm state"
  | Some j ->
    Alcotest.(check bool) "warm state restores" true
      (Warm.restore resume_cache j));
  Alcotest.(check int) "restored cache holds the entry" 1
    (Warm.size resume_cache);
  let resumed_calls = ref 0 in
  let resumed =
    Sweep.run ~checkpoint:cp'
      ~extra:(fun () -> Warm.to_json resume_cache)
      (warm_cells resume_cache resumed_calls)
  in
  Alcotest.(check int) "resume recomputes only the missing cells" 2
    !resumed_calls;
  Alcotest.(check bool)
    "resumed warm output bit-identical to uninterrupted warm run" true
    (resumed = reference);
  Sys.remove path

(* A run killed mid-record leaves its last line torn. The resume skips
   that line, restores the warm state of the last whole line, recomputes
   only the torn cell, and matches the uninterrupted warm run, warm
   state included. *)
let test_warm_sweep_torn_resume () =
  let path = tmp_path "warm_torn" in
  let ref_cache = Warm.create () in
  let reference = Sweep.run (warm_cells ref_cache (ref 0)) in
  let first_cache = Warm.create () in
  ignore
    (Sweep.run ~checkpoint:(Checkpoint.load ~path)
       ~extra:(fun () -> Warm.to_json first_cache)
       (warm_cells first_cache (ref 0)));
  Unix.truncate path ((Unix.stat path).Unix.st_size - 20);
  let cp = Checkpoint.load ~path in
  Alcotest.(check bool) "torn cell dropped, others kept" true
    (Checkpoint.find cp "c4" = None && Checkpoint.find cp "c3" <> None);
  let resume_cache = Warm.create () in
  (match Checkpoint.extra cp with
  | None -> Alcotest.fail "checkpoint lost the warm state"
  | Some j ->
    Alcotest.(check bool) "warm state restores" true
      (Warm.restore resume_cache j));
  let resumed_calls = ref 0 in
  let resumed =
    Sweep.run ~checkpoint:cp
      ~extra:(fun () -> Warm.to_json resume_cache)
      (warm_cells resume_cache resumed_calls)
  in
  Alcotest.(check int) "resume recomputes only the torn cell" 1
    !resumed_calls;
  Alcotest.(check bool) "resumed output bit-identical" true
    (resumed = reference);
  Alcotest.(check bool) "warm state identical" true
    (Checkpoint.extra (Checkpoint.load ~path) = Some (Warm.to_json ref_cache));
  Sys.remove path

(* A warm cache written when entries also kept per-commodity path
   pools: every entry carries a "paths" member next to its lengths.
   Such a checkpoint must still resume, with the same lengths
   transported. *)
let pooled_warm_doc =
  {|{"version": 1, "entries": {"ring": {"nodes": 4,
     "lengths": [[0, 1, 1.5], [1, 0, 0.25], [1, 2, 2.0], [2, 1, 0.125],
                 [2, 3, 3.5], [3, 2, 0.75], [3, 0, 1.0], [0, 3, 4.0]],
     "paths": [[0, 2, [[0, 1, 2], [0, 3, 2]]], [1, 3, [[1, 2, 3]]]]}}}|}

let test_warm_restores_pooled_cache () =
  let g = Graph.of_unit_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let known =
    [ ((0, 1), 1.5); ((1, 0), 0.25); ((1, 2), 2.0); ((2, 1), 0.125);
      ((2, 3), 3.5); ((3, 2), 0.75); ((3, 0), 1.0); ((0, 3), 4.0) ]
  in
  let lengths =
    Array.init (Graph.num_arcs g) (fun a ->
        List.assoc (Graph.arc_endpoints g a) known)
  in
  let expected = Warm.lengths_for (Warm.entry_of_lengths g lengths) g in
  Alcotest.(check bool) "fresh entry transports" true (expected <> None);
  let restored_lengths doc =
    let cache = Warm.create () in
    Alcotest.(check bool) "document restores" true (Warm.restore cache doc);
    match Warm.find cache "ring" with
    | None -> Alcotest.fail "restored cache lost the entry"
    | Some e -> Warm.lengths_for e g
  in
  let doc =
    match Json.of_string pooled_warm_doc with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (option (array (float 0.0))))
    "pooled entry gives the same lengths" expected (restored_lengths doc);
  (* Re-checkpointed in the current format, the entry still agrees. *)
  let cache = Warm.create () in
  ignore (Warm.restore cache doc);
  Alcotest.(check (option (array (float 0.0))))
    "re-serialized entry gives the same lengths" expected
    (restored_lengths (Warm.to_json cache))

(* ---- Solver selection ----

   The chain each selection maps onto, written out in full, so a change
   to any selection's rungs, threshold or defaults shows up here. *)

let test_policy_of_selections () =
  let check name expected forced =
    Alcotest.(check bool) name true (Solve.policy_of forced = expected)
  in
  let auto =
    {
      Solve.budget_ms = infinity;
      retries = 2;
      tol = 0.04;
      relax = 2.0;
      eps = 0.4;
      exact_threshold = 1500;
      rungs = [ Solve.Exact_lp; Solve.Fptas; Solve.Cut_bound ];
    }
  in
  check "None: whole chain" auto None;
  check "Exact_lp: exact rung, simplex ceiling"
    { auto with exact_threshold = 5000; rungs = [ Solve.Exact_lp ] }
    (Some Solve.Exact_lp);
  check "Fptas: FPTAS then cuts"
    { auto with rungs = [ Solve.Fptas; Solve.Cut_bound ] }
    (Some Solve.Fptas);
  check "Cut_bound: cuts only" { auto with rungs = [ Solve.Cut_bound ] }
    (Some Solve.Cut_bound);
  Alcotest.(check bool) "eps, tol and budget_ms pass through" true
    (Solve.policy_of ~eps:0.3 ~tol:0.1 ~budget_ms:50.0 (Some Solve.Fptas)
    = {
        auto with
        eps = 0.3;
        tol = 0.1;
        budget_ms = 50.0;
        rungs = [ Solve.Fptas; Solve.Cut_bound ];
      })

(* ---- Degradation chain ---- *)

let solve_cases topo =
  let tm = Synthetic.all_to_all topo in
  let exact =
    Solve.throughput
      ~policy:{ Solve.default_policy with rungs = [ Solve.Exact_lp ] }
      topo tm
  in
  (tm, exact)

let test_chain_agrees_with_exact () =
  let topo = small_topo () in
  let tm, exact = solve_cases topo in
  Alcotest.(check bool) "exact rung used" true (exact.Solve.rung = Solve.Exact_lp);
  (* FPTAS rung within its certified tolerance of the exact optimum. *)
  let fptas =
    Solve.throughput
      ~policy:{ Solve.default_policy with rungs = [ Solve.Fptas ]; tol = 0.04 }
      topo tm
  in
  Alcotest.(check bool) "fptas rung used" true (fptas.Solve.rung = Solve.Fptas);
  let e = exact.Solve.estimate.Mcf.value in
  let f = fptas.Solve.estimate.Mcf.value in
  Alcotest.(check bool)
    (Printf.sprintf "fptas %.4f within 5%% of exact %.4f" f e)
    true
    (Float.abs (f -. e) /. e < 0.05);
  (* Cut rung brackets the true optimum. *)
  let cuts =
    Solve.throughput
      ~policy:{ Solve.default_policy with rungs = [ Solve.Cut_bound ] }
      topo tm
  in
  Alcotest.(check bool) "cut rung used" true (cuts.Solve.rung = Solve.Cut_bound);
  Alcotest.(check bool)
    (Printf.sprintf "cut bracket [%.4f, %.4f] contains exact %.4f"
       cuts.Solve.estimate.Mcf.lower cuts.Solve.estimate.Mcf.upper e)
    true
    (cuts.Solve.estimate.Mcf.lower <= e +. 1e-9
    && e <= cuts.Solve.estimate.Mcf.upper +. 1e-9);
  (* The cut rung's bracket, pinned as float bits on this instance and
     on a less symmetric one (A2A on a jellyfish, where hop-shortest
     routing has many equal-length choices): the lower bound follows
     the shortest-path engine's parent-arc tie-breaking. *)
  let check_bits msg (lo, hi) (est : Mcf.estimate) =
    Alcotest.(check (pair string string)) msg (lo, hi)
      (Printf.sprintf "%h" est.Mcf.lower, Printf.sprintf "%h" est.Mcf.upper)
  in
  check_bits "hypercube cut bits" ("0x1p+0", "0x1p+1") cuts.Solve.estimate;
  let jelly =
    Tb_topo.Jellyfish.make ~rng:(Rng.make 31) ~n:24 ~degree:4
      ~hosts_per_switch:1 ()
  in
  let jcuts =
    Solve.throughput
      ~policy:{ Solve.default_policy with rungs = [ Solve.Cut_bound ] }
      jelly (Synthetic.all_to_all jelly)
  in
  check_bits "jellyfish cut bits"
    ("0x1.eb851eb851ebbp-1", "0x1.840ac76918414p+0")
    jcuts.Solve.estimate

let test_timeout_degrades_to_cuts () =
  let topo = small_topo () in
  let tm = Synthetic.all_to_all topo in
  let o =
    Solve.throughput
      ~policy:{ Solve.default_policy with budget_ms = 0.0; retries = 1 }
      topo tm
  in
  Alcotest.(check bool) "zero budget lands on the cut rung" true
    (o.Solve.rung = Solve.Cut_bound);
  (* Exact attempt + 2 FPTAS attempts all timed out before the cut rung. *)
  Alcotest.(check int) "three failed attempts recorded" 3
    (List.length o.Solve.attempts);
  Alcotest.(check bool) "every failed attempt carries an error message" true
    (List.for_all (fun a -> String.length a.Solve.error > 0) o.Solve.attempts)

let test_faults_never_crash () =
  (* Heavy injection on every attempt: the chain must still return a
     valid bracket (the cut rung is injection-free by design). *)
  let topo = small_topo () in
  let tm = Synthetic.all_to_all topo in
  let fault = Fault.make ~timeout_p:0.3 ~nan_p:0.3 ~exc_p:0.3 ~seed:11 () in
  for _ = 1 to 10 do
    let o = Solve.throughput ~fault topo tm in
    let e = o.Solve.estimate in
    Alcotest.(check bool) "finite value" true (Float.is_finite e.Mcf.value);
    Alcotest.(check bool) "ordered bracket" true (e.Mcf.lower <= e.Mcf.upper)
  done

let test_outcome_json () =
  let topo = small_topo () in
  let tm = Synthetic.all_to_all topo in
  let o = Solve.throughput topo tm in
  let j = Solve.outcome_to_json o in
  Alcotest.(check (option string))
    "rung serialized" (Some "exact")
    (Option.bind (Json.member "rung" j) Json.to_str);
  Alcotest.(check bool) "value serialized" true
    (Option.bind (Json.member "value" j) Json.to_float <> None)

(* ---- Link failures ---- *)

let test_failures_deterministic () =
  let topo = Tb_topo.Fattree.make ~k:4 () in
  let go seed =
    let t =
      Failures.fail_links ~rng:(Rng.make seed) ~rate:0.15 topo
    in
    Graph.num_edges t.Topology.graph
  in
  Alcotest.(check int) "same seed, same failed set" (go 5) (go 5);
  let m = Graph.num_edges topo.Topology.graph in
  let expected = m - Failures.failed_edge_count ~rate:0.15 m in
  Alcotest.(check int) "kills round(rate*m) links" expected (go 5)

let test_failures_rate_zero_and_bounds () =
  let topo = small_topo () in
  let t = Failures.fail_links ~rng:(Rng.make 1) ~rate:0.0 topo in
  Alcotest.(check int) "rate 0 keeps every link"
    (Graph.num_edges topo.Topology.graph)
    (Graph.num_edges t.Topology.graph);
  Alcotest.check_raises "rate 1 rejected"
    (Invalid_argument "Failures.fail_links: rate must be in [0, 1)")
    (fun () -> ignore (Failures.fail_links ~rng:(Rng.make 1) ~rate:1.0 topo))

let test_failures_connected () =
  let topo = Tb_topo.Fattree.make ~k:4 () in
  match
    Failures.fail_links_connected ~rng:(Rng.make 2) ~rate:0.2 topo
  with
  | None -> Alcotest.fail "could not find a connected 20% failure sample"
  | Some t ->
    Alcotest.(check bool) "endpoints stay connected" true
      (Failures.endpoints_connected t)

(* ---- Simplex cycling surface ---- *)

let test_simplex_on_check_called () =
  let topo = small_topo () in
  let cs = Tb_tm.Tm.commodities (Synthetic.all_to_all topo) in
  let calls = ref 0 in
  let value, _ =
    Tb_flow.Exact.solve ~on_check:(fun _ -> incr calls) topo.Topology.graph
      cs
  in
  Alcotest.(check bool) "solved" true (value > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "pivot hook fired (%d)" !calls)
    true (!calls > 0)

let () =
  Alcotest.run "harness"
    [
      ( "fault",
        [
          Alcotest.test_case "deterministic" `Quick test_fault_deterministic;
          Alcotest.test_case "none+validation" `Quick
            test_fault_none_and_validation;
          Alcotest.test_case "rates" `Quick test_fault_rates;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "expires" `Quick test_deadline_expires;
          Alcotest.test_case "aborts fleischer" `Quick
            test_deadline_aborts_fleischer;
        ] );
      ("guard", [ Alcotest.test_case "checks" `Quick test_guard ]);
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "corrupt" `Quick test_checkpoint_corrupt;
          Alcotest.test_case "linear in records" `Quick test_checkpoint_linear;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "resume identical" `Quick
            test_sweep_resume_identical;
          Alcotest.test_case "graceful interrupt" `Quick test_sweep_interrupt;
          Alcotest.test_case "warm resume bit-identical" `Quick
            test_warm_sweep_resume_identical;
          Alcotest.test_case "warm resume from a torn record" `Quick
            test_warm_sweep_torn_resume;
          Alcotest.test_case "warm restores cache with path pools" `Quick
            test_warm_restores_pooled_cache;
        ] );
      ( "solve",
        [
          Alcotest.test_case "chain agrees with exact" `Quick
            test_chain_agrees_with_exact;
          Alcotest.test_case "timeout degrades" `Quick
            test_timeout_degrades_to_cuts;
          Alcotest.test_case "faults never crash" `Quick
            test_faults_never_crash;
          Alcotest.test_case "outcome json" `Quick test_outcome_json;
          Alcotest.test_case "policy_of selections" `Quick
            test_policy_of_selections;
        ] );
      ( "failures",
        [
          Alcotest.test_case "deterministic" `Quick
            test_failures_deterministic;
          Alcotest.test_case "rate bounds" `Quick
            test_failures_rate_zero_and_bounds;
          Alcotest.test_case "connected resample" `Quick
            test_failures_connected;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "on_check hook" `Quick
            test_simplex_on_check_called;
        ] );
    ]
