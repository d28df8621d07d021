(* Tb_check: golden regression vectors, the Failures resampling
   invariants, service-cache bit-identity under fuzzed requests, and —
   the certificate system's own credential — deliberately broken solver
   results being caught by the checkers. *)

module Gen = Tb_check.Gen
module Cert = Tb_cert.Cert
module Diff = Tb_check.Diff
module Fuzz = Tb_check.Fuzz
module Graph = Tb_graph.Graph
module Topology = Tb_topo.Topology
module Failures = Tb_topo.Failures
module Catalog = Tb_topo.Catalog
module Tm = Tb_tm.Tm
module Synthetic = Tb_tm.Synthetic
module Fleischer = Tb_flow.Fleischer
module Colgen = Tb_flow.Colgen
module Estimator = Tb_cuts.Estimator
module Request = Tb_service.Request
module Service = Tb_service.Service
module Sresult = Tb_service.Result
module Json = Tb_obs.Json
module Rng = Tb_prelude.Rng

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let jstr name j =
  match Json.member name j with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail (Printf.sprintf "golden entry missing string %S" name)

let jfloat name j =
  match Option.bind (Json.member name j) Json.to_float with
  | Some x -> x
  | None -> Alcotest.fail (Printf.sprintf "golden entry missing number %S" name)

(* ---- Golden regression vectors. ----

   Same instance and TM choice as test/gen_golden.ml (kept in sync by
   the "tm" field check below); the update procedure when a change
   legitimately moves a value is:

     dune exec test/gen_golden.exe > test/golden.json *)

let golden_tm topo =
  if Array.length (Topology.endpoint_nodes topo) <= 10 then
    ("a2a", Synthetic.all_to_all topo)
  else ("lm", Synthetic.longest_matching topo)

let test_golden () =
  let doc =
    match Json.of_string (read_file "golden.json") with
    | Ok j -> j
    | Error e -> Alcotest.fail ("golden.json: " ^ e)
  in
  let entries =
    match Option.bind (Json.member "entries" doc) Json.to_list with
    | Some es -> es
    | None -> Alcotest.fail "golden.json: no entries"
  in
  Alcotest.(check int)
    "one golden entry per family"
    (List.length Catalog.all_families)
    (List.length entries);
  List.iter
    (fun family ->
      let name = Catalog.family_name family in
      let e =
        match List.find_opt (fun e -> jstr "family" e = name) entries with
        | Some e -> e
        | None -> Alcotest.fail ("no golden entry for " ^ name)
      in
      let topo = List.hd (Catalog.small family) in
      let tm_name, tm = golden_tm topo in
      Alcotest.(check string) (name ^ ": golden TM choice") (jstr "tm" e)
        tm_name;
      Alcotest.(check int)
        (name ^ ": node count")
        (Graph.num_nodes topo.Topology.graph)
        (int_of_float (jfloat "nodes" e));
      let r = Colgen.solve topo.Topology.graph (Tm.commodities tm) in
      let want = jfloat "throughput" e in
      if Float.abs (r.Colgen.value -. want) > 1e-9 +. (1e-9 *. want) then
        Alcotest.fail
          (Printf.sprintf
             "%s: throughput %.12g drifted from golden %.12g (if the \
              change is intended: dune exec test/gen_golden.exe > \
              test/golden.json)"
             name r.Colgen.value want))
    Catalog.all_families

(* ---- Failures-sweep golden vectors, cold and warm. ----

   The deterministic seed-42 mini-sweep of Failure_sweep.golden must
   reproduce its committed per-cell outcomes bit-identically — once
   solved cold and once warm-started (the warm cache chained across
   cells, certificate-guarded). A diff here means a solve path changed;
   the update procedure is the same gen_golden regeneration. *)

let test_golden_failures () =
  let doc =
    match Json.of_string (read_file "golden.json") with
    | Ok j -> j
    | Error e -> Alcotest.fail ("golden.json: " ^ e)
  in
  List.iter
    (fun (section, warm) ->
      let want =
        match Json.member section doc with
        | Some (Json.Obj fields) -> fields
        | _ -> Alcotest.fail ("golden.json: no " ^ section ^ " object")
      in
      let got = Tb_experiments.Failure_sweep.golden ~warm () in
      Alcotest.(check int)
        (section ^ ": cell count") (List.length want) (List.length got);
      List.iter
        (fun (key, j) ->
          match List.assoc_opt key want with
          | None -> Alcotest.fail (section ^ ": unexpected cell " ^ key)
          | Some w ->
            if j <> w then
              Alcotest.fail
                (Printf.sprintf
                   "%s: cell %s drifted from golden\n  got:  %s\n  want: %s\n\
                    (if the change is intended: dune exec \
                    test/gen_golden.exe > test/golden.json)"
                   section key (Json.to_string j) (Json.to_string w)))
        got)
    [ ("failures_cold", false); ("failures_warm", true) ]

(* ---- Failures link-deletion resampling invariants. ---- *)

let degrees g =
  let deg = Array.make (Graph.num_nodes g) 0 in
  ignore
    (Graph.fold_edges
       (fun () _ (e : Graph.edge) ->
         deg.(e.Graph.u) <- deg.(e.Graph.u) + 1;
         deg.(e.Graph.v) <- deg.(e.Graph.v) + 1)
       () g);
  deg

let test_failures_resampling () =
  let topo = Tb_topo.Hypercube.make ~dim:4 () in
  let g = topo.Topology.graph in
  let m = Graph.num_edges g in
  let rate = 0.2 in
  let survivors = m - Failures.failed_edge_count ~rate m in
  let deg = degrees g in
  for seed = 1 to 100 do
    let rng = Rng.make seed in
    match Failures.fail_links_connected ~rng ~rate topo with
    | None ->
      Alcotest.fail (Printf.sprintf "seed %d: resampling gave up" seed)
    | Some t' ->
      let g' = t'.Topology.graph in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: endpoints stay connected" seed)
        true
        (Failures.endpoints_connected t');
      Alcotest.(check int)
        (Printf.sprintf "seed %d: node count preserved" seed)
        (Graph.num_nodes g) (Graph.num_nodes g');
      Alcotest.(check int)
        (Printf.sprintf "seed %d: exactly %d links survive" seed survivors)
        survivors (Graph.num_edges g');
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: placement preserved" seed)
        true
        (t'.Topology.hosts = topo.Topology.hosts);
      let deg' = degrees g' in
      Array.iteri
        (fun v d ->
          if d > deg.(v) then
            Alcotest.fail
              (Printf.sprintf "seed %d: node %d gained degree (%d > %d)" seed
                 v d deg.(v)))
        deg'
  done

(* ---- Service cache bit-identity under fuzzed requests. ---- *)

let test_cache_bit_identity () =
  let service = Service.create ~capacity:1024 () in
  let rng = Rng.make 2024 in
  for _ = 1 to 50 do
    let inst = Gen.instance_of_seed (Rng.int rng 0x3FFFFFFF) in
    let req =
      Request.of_instance ~solver:Request.Fptas inst.Gen.topo inst.Gen.tm
    in
    let prebuilt = (inst.Gen.topo, inst.Gen.tm) in
    let r1 = Service.handle ~prebuilt service req in
    let r2 = Service.handle ~prebuilt service req in
    Alcotest.(check bool)
      (inst.Gen.tag ^ ": first request is a miss")
      false r1.Service.cached;
    Alcotest.(check bool)
      (inst.Gen.tag ^ ": second request is a hit")
      true r2.Service.cached;
    Alcotest.(check string)
      (inst.Gen.tag ^ ": hit renders bit-identical JSON")
      (Json.to_string (Sresult.to_json r1.Service.result))
      (Json.to_string (Sresult.to_json r2.Service.result))
  done

(* ---- Broken results are caught. ----

   The certificate system's reason to exist: corrupt a genuine solver
   result in each of the ways a buggy solver could, and demand that at
   least one checker rejects every corruption. *)

let expect_caught name = function
  | Error _ -> ()
  | Ok () ->
    Alcotest.fail (name ^ ": corrupted result passed its certificate")

let test_broken_results_caught () =
  let inst = Gen.instance_of_seed 12345 in
  let g = inst.Gen.topo.Topology.graph in
  let cs = Tm.commodities inst.Gen.tm in
  let flows = Tm.flows inst.Gen.tm in
  let r = Fleischer.solve ~tol:0.03 g cs in
  (* The honest result passes everything... *)
  Alcotest.(check (result unit string))
    "honest primal passes" (Ok ())
    (Cert.primal_feasible g cs ~throughput:r.Fleischer.lower
       ~flow:r.Fleischer.flow);
  Alcotest.(check (result unit string))
    "honest dual passes" (Ok ())
    (Cert.dual_bound_valid g cs ~lengths:r.Fleischer.lengths
       ~upper:r.Fleischer.upper);
  (* ...and each injected fault is caught. An inflated throughput claim
     needs a per-commodity certificate: aggregate conservation is
     throughput-blind on balanced TMs (see Cert.primal_feasible). *)
  let c = Colgen.solve g cs in
  expect_caught "inflated throughput claim (path certificate)"
    (Cert.path_flows_feasible g cs
       ~throughput:(10.0 *. c.Colgen.value)
       ~paths:c.Colgen.paths);
  let skewed = Gen.instance_of_seed 7 in
  let sg = skewed.Gen.topo.Topology.graph in
  let scs = Tm.commodities skewed.Gen.tm in
  let sr = Fleischer.solve ~tol:0.03 sg scs in
  expect_caught "inflated throughput claim (unbalanced TM, aggregate)"
    (Cert.primal_feasible sg scs
       ~throughput:(10.0 *. sr.Fleischer.lower)
       ~flow:sr.Fleischer.flow);
  let tampered = Array.copy r.Fleischer.flow in
  if Array.length tampered > 0 then
    tampered.(0) <- tampered.(0) +. (1.0 +. (2.0 *. Graph.arc_cap g 0));
  expect_caught "flow conservation broken"
    (Cert.primal_feasible g cs ~throughput:r.Fleischer.lower ~flow:tampered);
  expect_caught "upper bound undercuts its dual certificate"
    (Cert.dual_bound_valid g cs ~lengths:r.Fleischer.lengths
       ~upper:(r.Fleischer.upper /. 2.0));
  expect_caught "inverted bracket"
    (Cert.bounds_ordered ~lower:r.Fleischer.upper ~value:(Fleischer.value r)
       ~upper:(r.Fleischer.lower /. 2.0) ());
  let rep = Estimator.run g flows in
  (match rep.Estimator.best_cut with
  | Some cut when Float.is_finite rep.Estimator.sparsity ->
    expect_caught "understated cut sparsity"
      (Cert.cut_bound_valid g flows ~cut
         ~claimed:(rep.Estimator.sparsity /. 2.0))
  | _ -> Alcotest.fail "estimator produced no witness cut");
  expect_caught "disagreeing certified brackets"
    (Cert.agreement
       [
         ("a", r.Fleischer.lower, r.Fleischer.upper);
         ("b", 3.0 *. r.Fleischer.upper, 4.0 *. r.Fleischer.upper);
       ])

(* ---- Incremental k-shortest repair = from-scratch recompute. ----

   The warm-start seam in Tb_graph.Kshortest: after deleting one edge,
   [repair_deleted] must return the bit-identical path set a cold
   [k_shortest ~banned] call would — including the no-op case where no
   previous path used the edge. Exercised over the catalog families and
   50 generated instances, on both the all-ties hop metric and a
   non-uniform length function. *)

module Kshortest = Tb_graph.Kshortest

(* Both directed arcs of edge [e] (the ban set of one link failure). *)
let arcs_of_edge g (e : Graph.edge) =
  let fwd = ref None in
  Graph.iter_succ
    (fun v arc -> if v = e.Graph.v && !fwd = None then fwd := Some arc)
    g e.Graph.u;
  match !fwd with None -> [] | Some a -> [ a; Graph.arc_rev a ]

let repair_matches_scratch ?(max_edges = max_int) g ~src ~dst ~k =
  let edges = Graph.edges g in
  let m = Array.length edges in
  let tested = min m max_edges in
  let lens =
    [
      (fun _ -> 1.0);
      (fun a -> 1.0 +. (float_of_int ((a * 2654435761) land 7) /. 4.0));
    ]
  in
  List.for_all
    (fun len ->
      let prev = Kshortest.k_shortest g ~len ~src ~dst ~k in
      List.for_all
        (fun j ->
          let e = edges.((j * 7919) mod m) in
          match arcs_of_edge g e with
          | [] -> true
          | banned ->
            Kshortest.repair_deleted g ~len ~banned ~src ~dst ~k prev
            = Kshortest.k_shortest ~banned g ~len ~src ~dst ~k)
        (List.init tested Fun.id))
    lens

let test_repair_catalog () =
  List.iter
    (fun spec ->
      let topo =
        match Catalog.spec_of_string spec with
        | Ok sp -> Catalog.build_spec sp
        | Error e -> Alcotest.fail e
      in
      let g = topo.Topology.graph in
      let n = Graph.num_nodes g in
      Alcotest.(check bool)
        (spec ^ ": repair = from-scratch") true
        (repair_matches_scratch g ~src:0 ~dst:(n - 1) ~k:4))
    [ "hypercube:3"; "fattree:4"; "jellyfish:10,deg=3,seed=7" ]

let prop_repair_identical =
  QCheck.Test.make
    ~name:"k-shortest repair bit-identical to recompute (one edge deleted)"
    ~count:50 Gen.arbitrary (fun inst ->
      let g = inst.Gen.topo.Topology.graph in
      let cs = Tm.commodities inst.Gen.tm in
      QCheck.assume (Array.length cs > 0);
      let c = cs.(0) in
      repair_matches_scratch ~max_edges:6 g ~src:c.Tb_flow.Commodity.src
        ~dst:c.Tb_flow.Commodity.dst ~k:4)

(* ---- The differential property, as a QCheck test. ---- *)

let prop_brackets_agree =
  QCheck.Test.make ~name:"FPTAS bracket contains the colgen optimum"
    ~count:5 Gen.arbitrary (fun inst ->
      let g = inst.Gen.topo.Topology.graph in
      let cs = Tm.commodities inst.Gen.tm in
      QCheck.assume (Array.length cs <= 100);
      let r = Fleischer.solve ~tol:0.03 g cs in
      let c = Colgen.solve g cs in
      Cert.agreement
        [
          ("fptas", r.Fleischer.lower, r.Fleischer.upper);
          ("colgen", c.Colgen.value, c.Colgen.value);
        ]
      = Ok ())

(* ---- The fuzz loop end-to-end (corpus replay + fresh instances). ---- *)

let test_fuzz_smoke () =
  let cfg =
    { Fuzz.instances = 3; seed = 12321; corpus = Some "corpus";
      subject = Fuzz.All_solvers }
  in
  let rep = Fuzz.run cfg in
  Alcotest.(check bool)
    "corpus was replayed" true
    (rep.Fuzz.corpus_replayed > 0);
  (match Fuzz.report_json cfg rep with
  | Json.Obj fields ->
    List.iter
      (fun k ->
        Alcotest.(check bool)
          ("report has " ^ k) true
          (List.mem_assoc k fields))
      [ "instances"; "corpus_replayed"; "seed"; "failures_total";
        "certificates"; "failures" ]
  | _ -> Alcotest.fail "report is not an object");
  (match Diff.failures rep.Fuzz.tally with
  | [] -> ()
  | f :: _ ->
    Alcotest.fail
      (Printf.sprintf "fuzz failure: %s on seed %d (%s): %s" f.Diff.cert
         f.Diff.seed f.Diff.tag f.Diff.detail));
  Alcotest.(check int) "exit code 0" 0 (Fuzz.exit_code rep)

let () =
  Alcotest.run "check"
    [
      ( "golden",
        [ Alcotest.test_case "catalog families match golden.json" `Slow
            test_golden;
          Alcotest.test_case "failures sweep matches golden.json (cold+warm)"
            `Slow test_golden_failures ] );
      ( "failures",
        [ Alcotest.test_case "link-deletion resampling invariants" `Quick
            test_failures_resampling ] );
      ( "service",
        [ Alcotest.test_case "cache hits are bit-identical (50 fuzzed)"
            `Slow test_cache_bit_identity ] );
      ( "certificates",
        [ Alcotest.test_case "broken results are caught" `Quick
            test_broken_results_caught;
          Qseed.to_alcotest prop_brackets_agree ] );
      ( "kshortest-repair",
        [ Alcotest.test_case "catalog families: repair = from-scratch" `Quick
            test_repair_catalog;
          Qseed.to_alcotest prop_repair_identical ] );
      ( "fuzz",
        [ Alcotest.test_case "fuzz loop + corpus replay" `Slow
            test_fuzz_smoke ] );
    ]
