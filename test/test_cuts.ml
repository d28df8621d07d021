module Graph = Tb_graph.Graph
module Cut = Tb_cuts.Cut
module Brute = Tb_cuts.Brute
module Small_cuts = Tb_cuts.Small_cuts
module Expanding = Tb_cuts.Expanding
module Eigen_sweep = Tb_cuts.Eigen_sweep
module Bisection = Tb_cuts.Bisection
module Estimator = Tb_cuts.Estimator
module Exact = Tb_flow.Exact
module Commodity = Tb_flow.Commodity
module Rng = Tb_prelude.Rng
module Traversal = Tb_graph.Traversal
module Spectral = Tb_graph.Spectral
module Cert = Tb_cert.Cert
module Gen = Tb_check.Gen

let check_float = Alcotest.(check (float 1e-6))

(* Dumbbell: two K4s joined by one edge — the canonical sparse cut. *)
let dumbbell =
  Graph.of_unit_edges ~n:8
    [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3);
      (4, 5); (4, 6); (4, 7); (5, 6); (5, 7); (6, 7); (3, 4) ]

let hc4 = (Tb_topo.Hypercube.make ~dim:4 ()).Tb_topo.Topology.graph

(* Matching flows across the dumbbell: 4 left-right pairs. *)
let dumbbell_flows =
  [| (0, 4, 1.0); (1, 5, 1.0); (2, 6, 1.0); (3, 7, 1.0) |]

(* ---- Cut basics ---- *)

let test_cut_capacity_demand () =
  let cut = Cut.of_list ~n:8 [ 0; 1; 2; 3 ] in
  check_float "capacity" 1.0 (Cut.capacity dumbbell cut);
  let fwd, bwd = Cut.demand_across dumbbell_flows cut in
  check_float "forward demand" 4.0 fwd;
  check_float "no backward" 0.0 bwd;
  check_float "sparsity" 0.25 (Cut.sparsity dumbbell dumbbell_flows cut)

let test_cut_improper_rejected () =
  let cut = Cut.of_list ~n:8 [] in
  Alcotest.check_raises "improper"
    (Invalid_argument "Cut.sparsity: improper cut") (fun () ->
      ignore (Cut.sparsity dumbbell dumbbell_flows cut))

let test_cut_complement () =
  let cut = Cut.of_list ~n:4 [ 0; 2 ] in
  Alcotest.(check (array bool)) "complement" [| false; true; false; true |]
    (Cut.complement cut)

let test_cut_bidirectional_demand () =
  let flows = [| (0, 4, 3.0); (4, 0, 1.0) |] in
  let cut = Cut.of_list ~n:8 [ 0; 1; 2; 3 ] in
  (* Sparsity uses the larger direction: 1 / 3. *)
  check_float "max direction" (1.0 /. 3.0) (Cut.sparsity dumbbell flows cut)

(* ---- Brute force ---- *)

let test_brute_finds_bottleneck () =
  let best, cut = Brute.sparsest (Cut.prepare dumbbell dumbbell_flows) in
  check_float "bottleneck sparsity" 0.25 best;
  match cut with
  | None -> Alcotest.fail "no cut"
  | Some c -> Alcotest.(check int) "half on one side" 4 (Cut.size c)

let test_brute_large_graph_capped () =
  (* Graphs beyond 62 nodes enumerate the capped prefix of masks, whose
     cuts hold low-numbered nodes only: mask 1 is {0}. A mask test by
     [1 lsl v] wraps at v = 64 on 64-bit hosts, putting node 64 in too
     (sparsity 4 instead of 2). *)
  let n = 80 in
  let g = Graph.of_unit_edges ~n (List.init n (fun i -> (i, (i + 1) mod n))) in
  let flows = [| (0, 40, 1.0); (40, 0, 1.0) |] in
  let best, cut = Brute.sparsest ~max_cuts:1 (Cut.prepare g flows) in
  check_float "two ring edges over one unit" 2.0 best;
  Alcotest.(check (option (array bool)))
    "witness {0}" (Some (Cut.of_list ~n [ 0 ])) cut;
  let many, _ = Brute.sparsest ~max_cuts:5_000 (Cut.prepare g flows) in
  Alcotest.(check bool) "more cuts, no worse" true (many <= best)

let test_brute_exhaustive_flag () =
  Alcotest.(check bool) "small exhaustive" true
    (Brute.exhaustive dumbbell ~max_cuts:10_000);
  Alcotest.(check bool) "capped not exhaustive" false
    (Brute.exhaustive hc4 ~max_cuts:100)

(* ---- Heuristic families ---- *)

let test_one_node_cut_star () =
  (* Star: the center's cut carries everything; leaves are sparse. *)
  let star = Graph.of_unit_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  let flows = [| (1, 2, 1.0); (2, 3, 1.0); (3, 4, 1.0); (4, 1, 1.0) |] in
  let best, _ = Small_cuts.sparsest_one_node (Cut.prepare star flows) in
  (* A leaf cut: capacity 1, demand 2 (in+out picks max direction = 1)...
     leaf 1: out 1, in 1 -> sparsity 1. Center cut: capacity 4 over
     demand 0 crossing? All flows cross the center's cut boundary twice?
     Flows are leaf-to-leaf so each crosses in and out: cut {0} has no
     flow endpoint inside -> demand 0 -> infinity. So best = 1. *)
  check_float "leaf sparsity" 1.0 best

let test_two_node_cuts () =
  let best, cut =
    Small_cuts.sparsest_two_node (Cut.prepare dumbbell dumbbell_flows)
  in
  Alcotest.(check bool) "a proper value" true (best < infinity);
  match cut with
  | None -> Alcotest.fail "no cut"
  | Some c -> Alcotest.(check int) "two nodes" 2 (Cut.size c)

let test_expanding_finds_dumbbell () =
  let best, _ = Expanding.sparsest (Cut.prepare dumbbell dumbbell_flows) in
  check_float "ball around one side" 0.25 best

let test_eigen_sweep_finds_dumbbell () =
  let best, _ = Eigen_sweep.sparsest (Cut.prepare dumbbell dumbbell_flows) in
  check_float "sweep finds waist" 0.25 best

(* ---- Bisection ---- *)

let test_bisection_exact_dumbbell () =
  let v, cut = Bisection.exact dumbbell in
  check_float "one edge" 1.0 v;
  match cut with
  | None -> Alcotest.fail "no cut"
  | Some c -> Alcotest.(check int) "balanced" 4 (Cut.size c)

let test_bisection_hypercube () =
  (* Hypercube d=4: bisection = n/2 = 8 edges. *)
  let v, _ = Bisection.exact hc4 in
  check_float "2^(d-1) edges" 8.0 v

let test_bisection_heuristic_close () =
  (* On a larger instance the KL+spectral heuristic should find the
     dumbbell waist too. *)
  let edges = ref [ (0, 21) ] in
  for u = 0 to 20 do
    for v = u + 1 to 20 do
      if (u + v) mod 3 <> 0 then edges := (u, v) :: !edges
    done
  done;
  for u = 21 to 41 do
    for v = u + 1 to 41 do
      if (u + v) mod 3 <> 0 then edges := (u, v) :: !edges
    done
  done;
  let g = Graph.of_unit_edges ~n:42 !edges in
  let bw = Bisection.bandwidth ~rng:(Rng.make 2) g in
  check_float "waist found" 1.0 bw

(* ---- Cuts upper-bound throughput (the paper's core claim) ---- *)

let prop_cut_bounds_throughput =
  QCheck.Test.make ~name:"sparse cut >= exact throughput" ~count:25
    QCheck.small_int (fun seed ->
      let rng = Rng.make seed in
      let n = 5 + Rng.int rng 4 in
      (* Random connected graph. *)
      let edges = ref [] in
      for v = 1 to n - 1 do
        edges := (v - 1, v) :: !edges
      done;
      let have = Hashtbl.create 16 in
      List.iter (fun (u, v) -> Hashtbl.replace have (min u v, max u v) ()) !edges;
      for _ = 1 to n do
        let u = Rng.int rng n and v = Rng.int rng n in
        if u <> v && not (Hashtbl.mem have (min u v, max u v)) then begin
          Hashtbl.replace have (min u v, max u v) ();
          edges := (u, v) :: !edges
        end
      done;
      let g = Graph.of_unit_edges ~n !edges in
      (* Random matching flows. *)
      let p = Tb_graph.Permutation.derangement rng n in
      let flows = Array.init n (fun i -> (i, p.(i), 1.0)) in
      let cs =
        Array.map (fun (u, v, w) -> Commodity.make ~src:u ~dst:v ~demand:w) flows
      in
      let exact, _ = Exact.solve g cs in
      let report = Estimator.run g flows in
      report.Estimator.sparsity >= exact -. 1e-6)

(* ---- The evaluation kernel against the naive oracle ---- *)

let hypercube6_a2a () =
  let topo =
    match Tb_topo.Catalog.spec_of_string "hypercube:6" with
    | Ok sp -> Tb_topo.Catalog.build_spec sp
    | Error m -> failwith m
  in
  (topo.Tb_topo.Topology.graph, Tb_tm.Tm.flows (Tb_tm.Synthetic.all_to_all topo))

let check_bits what expected got =
  if Int64.bits_of_float expected <> Int64.bits_of_float got then
    Alcotest.failf "%s: expected %h, got %h" what expected got

(* Every estimator's value on hypercube:6 A2A, to the last bit, as the
   naive per-cut evaluation computed it. *)
let test_hypercube6_pinned () =
  let g, flows = hypercube6_a2a () in
  let report = Estimator.run g flows in
  List.iter
    (fun (est, expected) ->
      check_bits (Estimator.name est) expected
        (List.assoc est report.Estimator.per_estimator))
    [
      (Estimator.Brute_force, 0x1.a41a41a41a41ap+1);
      (Estimator.One_node, 0x1.8618618618618p+2);
      (Estimator.Two_node, 0x1.4a5294a5294a5p+2);
      (Estimator.Expanding, 0x1.09f959c427e56p+2);
      (Estimator.Eigenvector, 0x1.7119f3d324d89p+1);
    ]

(* Reference enumerations written independently of the estimators'
   iterators, each evaluated with the naive [Cut.sparsity]: the first
   strict minimum and a copy of its cut. *)
let naive_sparsest g flows enumerate =
  let best = ref infinity and best_cut = ref None in
  enumerate (fun cut ->
      if Cut.is_proper cut then begin
        let s = Cut.sparsity g flows cut in
        if s < !best then begin
          best := s;
          best_cut := Some (Array.copy cut)
        end
      end);
  (!best, !best_cut)

let naive_brute g f =
  let n = Graph.num_nodes g in
  let count = min ((1 lsl (n - 1)) - 1) Brute.default_cap in
  for mask = 1 to count do
    f (Array.init n (fun v -> v < n - 1 && (mask lsr v) land 1 = 1))
  done

let naive_small ~size g f =
  let n = Graph.num_nodes g in
  for u = 0 to n - 1 do
    if size = 1 then f (Cut.of_list ~n [ u ])
    else
      for v = u + 1 to n - 1 do
        f (Cut.of_list ~n [ u; v ])
      done
  done

let naive_expanding g f =
  let n = Graph.num_nodes g in
  for origin = 0 to n - 1 do
    let dist = Traversal.bfs_dist g origin in
    for radius = 0 to Array.fold_left max 0 dist - 1 do
      f (Array.map (fun d -> d >= 0 && d <= radius) dist)
    done
  done

let naive_eigen g f =
  let n = Graph.num_nodes g in
  let order = Spectral.sweep_order g in
  for i = 0 to n - 2 do
    f (Cut.of_list ~n (Array.to_list (Array.sub order 0 (i + 1))))
  done

let prop_kernel_matches_naive =
  QCheck.Test.make ~name:"estimators match naive enumeration" ~count:60
    Gen.arbitrary (fun inst ->
      let g = inst.Gen.topo.Tb_topo.Topology.graph in
      let flows = Tb_tm.Tm.flows inst.Gen.tm in
      (* From 66 nodes on, the brute cap's prefix is where the old mask
         test wrapped; the oracle's mask test covers fewer nodes. *)
      Graph.num_nodes g >= 66
      ||
      let p = Cut.prepare g flows in
      let same (v, cut) (v', cut') =
        Int64.bits_of_float v = Int64.bits_of_float v' && cut = cut'
      in
      let certified (v, cut) =
        match cut with
        | None -> v = infinity
        | Some cut -> Cert.cut_bound_valid g flows ~cut ~claimed:v = Ok ()
      in
      List.for_all
        (fun (got, reference) -> same got reference && certified got)
        [
          (Brute.sparsest p, naive_sparsest g flows (naive_brute g));
          ( Small_cuts.sparsest_one_node p,
            naive_sparsest g flows (naive_small ~size:1 g) );
          ( Small_cuts.sparsest_two_node p,
            naive_sparsest g flows (naive_small ~size:2 g) );
          (Expanding.sparsest p, naive_sparsest g flows (naive_expanding g));
          (Eigen_sweep.sparsest p, naive_sparsest g flows (naive_eigen g));
        ])

let test_estimator_report_structure () =
  let report = Estimator.run dumbbell dumbbell_flows in
  check_float "best" 0.25 report.Estimator.sparsity;
  Alcotest.(check bool) "winners nonempty" true
    (List.length report.Estimator.winners > 0);
  Alcotest.(check int) "five estimators" 5
    (List.length report.Estimator.per_estimator)

let () =
  Alcotest.run "cuts"
    [
      ( "cut",
        [
          Alcotest.test_case "capacity/demand" `Quick test_cut_capacity_demand;
          Alcotest.test_case "improper" `Quick test_cut_improper_rejected;
          Alcotest.test_case "complement" `Quick test_cut_complement;
          Alcotest.test_case "bidirectional" `Quick test_cut_bidirectional_demand;
        ] );
      ( "brute",
        [
          Alcotest.test_case "finds bottleneck" `Quick test_brute_finds_bottleneck;
          Alcotest.test_case "exhaustive flag" `Quick test_brute_exhaustive_flag;
          Alcotest.test_case "large graph capped" `Quick
            test_brute_large_graph_capped;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "one-node star" `Quick test_one_node_cut_star;
          Alcotest.test_case "two-node" `Quick test_two_node_cuts;
          Alcotest.test_case "expanding" `Quick test_expanding_finds_dumbbell;
          Alcotest.test_case "eigen sweep" `Quick test_eigen_sweep_finds_dumbbell;
        ] );
      ( "bisection",
        [
          Alcotest.test_case "exact dumbbell" `Quick test_bisection_exact_dumbbell;
          Alcotest.test_case "hypercube" `Quick test_bisection_hypercube;
          Alcotest.test_case "heuristic" `Quick test_bisection_heuristic_close;
        ] );
      ( "vs-throughput",
        [
          Qseed.to_alcotest prop_cut_bounds_throughput;
          Alcotest.test_case "report" `Quick test_estimator_report_structure;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "hypercube:6 pinned values" `Quick
            test_hypercube6_pinned;
          Qseed.to_alcotest prop_kernel_matches_naive;
        ] );
    ]
