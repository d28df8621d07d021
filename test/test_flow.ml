module Graph = Tb_graph.Graph
module Rng = Tb_prelude.Rng
module Commodity = Tb_flow.Commodity
module Maxflow = Tb_flow.Maxflow
module Fleischer = Tb_flow.Fleischer
module Exact = Tb_flow.Exact
module Restricted = Tb_flow.Restricted
module Mcf = Tb_flow.Mcf
module Kshortest = Tb_graph.Kshortest

let check_float = Alcotest.(check (float 1e-6))

let ring4 = Graph.of_unit_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ]
let path4 = Graph.of_unit_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ]

let k4 =
  Graph.of_unit_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]

let cube3 =
  Graph.of_unit_edges ~n:8
    [ (0, 1); (2, 3); (4, 5); (6, 7); (0, 2); (1, 3); (4, 6); (5, 7); (0, 4);
      (1, 5); (2, 6); (3, 7) ]

let cm ~src ~dst ~demand = Commodity.make ~src ~dst ~demand

(* ---- Commodity ---- *)

let test_commodity_normalize () =
  let cs =
    Commodity.normalize
      [| cm ~src:0 ~dst:0 ~demand:1.0; cm ~src:0 ~dst:1 ~demand:0.0;
         cm ~src:1 ~dst:2 ~demand:2.0 |]
  in
  Alcotest.(check int) "only real flow kept" 1 (Array.length cs);
  check_float "demand kept" 2.0 (Commodity.total_demand cs)

let test_commodity_group_by_source () =
  let cs =
    [| cm ~src:2 ~dst:0 ~demand:1.0; cm ~src:0 ~dst:1 ~demand:1.0;
       cm ~src:2 ~dst:1 ~demand:1.0 |]
  in
  let groups = Commodity.group_by_source ~n:3 cs in
  Alcotest.(check int) "two groups" 2 (Array.length groups);
  let s0, idx0 = groups.(0) in
  Alcotest.(check int) "first source" 0 s0;
  Alcotest.(check int) "one commodity" 1 (Array.length idx0);
  let s2, idx2 = groups.(1) in
  Alcotest.(check int) "second source" 2 s2;
  Alcotest.(check int) "two commodities" 2 (Array.length idx2)

let test_commodity_negative_demand () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Commodity.make: negative demand") (fun () ->
      ignore (cm ~src:0 ~dst:1 ~demand:(-1.0)))

(* ---- Maxflow ---- *)

let test_maxflow_path () =
  check_float "unit path" 1.0 (Maxflow.solve path4 ~src:0 ~dst:3).Maxflow.value

let test_maxflow_k4 () =
  (* K4: three edge-disjoint-ish routes 0->3: direct, via 1, via 2. *)
  check_float "k4" 3.0 (Maxflow.solve k4 ~src:0 ~dst:3).Maxflow.value

let test_maxflow_capacities () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 2.0); (1, 2, 0.5) ] in
  check_float "bottleneck" 0.5 (Maxflow.solve g ~src:0 ~dst:2).Maxflow.value

let test_maxflow_cube () =
  (* Hypercube: degree 3, so 3 disjoint paths between antipodes. *)
  check_float "cube antipodal" 3.0 (Maxflow.solve cube3 ~src:0 ~dst:7).Maxflow.value

let test_min_cut_matches () =
  let v, side = Maxflow.min_cut cube3 ~src:0 ~dst:7 in
  check_float "value" 3.0 v;
  Alcotest.(check bool) "src inside" true side.(0);
  Alcotest.(check bool) "dst outside" false side.(7);
  (* Crossing capacity equals flow value. *)
  let crossing =
    Graph.fold_edges
      (fun acc _ e ->
        if side.(e.Graph.u) <> side.(e.Graph.v) then acc +. e.Graph.cap else acc)
      0.0 cube3
  in
  check_float "cut capacity" v crossing

(* Random graph + commodity generator shared by the FPTAS properties. *)
let random_instance seed =
  let rng = Rng.make seed in
  let n = 4 + Rng.int rng 5 in
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
  let k = 1 + Rng.int rng 3 in
  let cs =
    Array.init k (fun _ ->
        let src = Rng.int rng n in
        let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
        cm ~src ~dst ~demand:(0.5 +. Rng.float rng 2.0))
  in
  (g, cs)

(* ---- Fleischer vs exact LP ---- *)

let prop_fptas_brackets_exact =
  QCheck.Test.make ~name:"FPTAS brackets the exact optimum" ~count:40
    QCheck.small_int (fun seed ->
      let g, cs = random_instance seed in
      let exact, _ = Exact.solve g cs in
      let r = Fleischer.solve ~tol:0.02 g cs in
      r.Fleischer.lower <= exact +. 1e-6
      && exact <= r.Fleischer.upper +. 1e-6
      && r.Fleischer.upper <= r.Fleischer.lower *. 1.03 +. 1e-9)

let prop_fptas_flow_feasible =
  QCheck.Test.make ~name:"FPTAS flow respects capacities" ~count:40
    QCheck.small_int (fun seed ->
      let g, cs = random_instance seed in
      let r = Fleischer.solve ~tol:0.05 g cs in
      let ok = ref true in
      Array.iteri
        (fun a f -> if f > Graph.arc_cap g a *. (1.0 +. 1e-6) then ok := false)
        r.Fleischer.flow;
      !ok)

let test_fleischer_no_commodities () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Fleischer.solve: no non-trivial commodities") (fun () ->
      ignore (Fleischer.solve ring4 [||]))

let test_fleischer_unreachable () =
  let g = Graph.of_unit_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "raises unreachable" true
    (try
       ignore (Fleischer.solve g [| cm ~src:0 ~dst:3 ~demand:1.0 |]);
       false
     with Fleischer.Unreachable_commodity _ -> true);
  (* The first unreachable commodity in input order is the one reported. *)
  let cs =
    [| cm ~src:1 ~dst:0 ~demand:1.0; cm ~src:3 ~dst:1 ~demand:1.0;
       cm ~src:0 ~dst:2 ~demand:1.0; cm ~src:2 ~dst:3 ~demand:1.0 |]
  in
  match Fleischer.solve g cs with
  | _ -> Alcotest.fail "expected Unreachable_commodity"
  | exception Fleischer.Unreachable_commodity c ->
    Alcotest.(check (pair int int)) "first unreachable" (3, 1)
      (c.Commodity.src, c.Commodity.dst)

let test_exact_known_ring () =
  let v, _ =
    Exact.solve ring4
      [| cm ~src:0 ~dst:2 ~demand:1.0; cm ~src:1 ~dst:3 ~demand:1.0 |]
  in
  check_float "ring cross" 1.0 v

let test_exact_capacity_respected () =
  let _, flow =
    Exact.solve path4
      [| cm ~src:0 ~dst:3 ~demand:1.0; cm ~src:1 ~dst:3 ~demand:1.0 |]
  in
  Array.iteri
    (fun a f ->
      Alcotest.(check bool) "arc within cap" true
        (f <= Graph.arc_cap path4 a +. 1e-6))
    flow

let test_exact_budget_guard () =
  let big = Tb_topo.Hypercube.make ~dim:6 () in
  let topo_graph = big.Tb_topo.Topology.graph in
  let cs =
    Array.init 64 (fun i -> cm ~src:i ~dst:(63 - i) ~demand:1.0)
  in
  Alcotest.(check bool) "refuses oversized" true
    (try
       ignore (Exact.solve topo_graph (Commodity.normalize cs));
       Exact.variable_budget topo_graph cs <= Exact.max_lp_variables
     with Invalid_argument _ -> true)

(* ---- Restricted (path-constrained) ---- *)

let all_paths g ~src ~dst =
  List.map
    (fun p -> p.Kshortest.arcs)
    (Kshortest.k_shortest_hops g ~src ~dst ~k:16)

let test_restricted_less_than_free () =
  (* Restricting ring flows to single clockwise paths halves throughput. *)
  let spec_one_path =
    [|
      { Restricted.commodity = cm ~src:0 ~dst:2 ~demand:1.0;
        paths = [| [ 0; 2 ] |] };
      (* arcs 0=(0->1), 2=(1->2) *)
      { Restricted.commodity = cm ~src:1 ~dst:3 ~demand:1.0;
        paths = [| [ 2; 4 ] |] };
      (* arcs (1->2), (2->3): shares arc 2 *)
    |]
  in
  let r = Restricted.solve ~tol:0.02 ring4 spec_one_path in
  Alcotest.(check bool) "about 0.5" true
    (r.Restricted.lower <= 0.51 && r.Restricted.upper >= 0.49)

let test_restricted_matches_exact_with_all_paths () =
  let cs =
    [| cm ~src:0 ~dst:7 ~demand:1.0; cm ~src:3 ~dst:4 ~demand:1.0 |]
  in
  let specs =
    Array.map
      (fun c ->
        {
          Restricted.commodity = c;
          paths =
            Array.of_list
              (all_paths cube3 ~src:c.Commodity.src ~dst:c.Commodity.dst);
        })
      cs
  in
  let exact, _ = Exact.solve cube3 cs in
  let r = Restricted.solve ~tol:0.02 cube3 specs in
  (* With a rich path set the restricted optimum is close to exact (it
     cannot exceed it). *)
  Alcotest.(check bool) "le exact" true (r.Restricted.lower <= exact +. 1e-6);
  Alcotest.(check bool) "close to exact" true
    (r.Restricted.upper >= exact *. 0.85)

let test_fleischer_weighted_capacities () =
  (* Non-unit capacities: a fat direct link should carry proportionally
     more. Path 0-1 with cap 3 vs detour 0-2-1 with cap 1: max flow
     0->1 as a single concurrent commodity = 4. *)
  let g =
    Graph.of_edges ~n:3 [ (0, 1, 3.0); (0, 2, 1.0); (2, 1, 1.0) ]
  in
  let r =
    Fleischer.solve ~tol:0.02 g [| cm ~src:0 ~dst:1 ~demand:1.0 |]
  in
  Alcotest.(check bool) "~4 units" true
    (r.Fleischer.lower >= 3.9 && r.Fleischer.upper <= 4.1)

let test_fleischer_demand_scale_invariance () =
  (* Scaling all demands by c must scale throughput by 1/c (the
     pre-scaling sigma machinery must not distort the result). *)
  let g = cube3 in
  let base = [| cm ~src:0 ~dst:7 ~demand:1.0; cm ~src:3 ~dst:4 ~demand:2.0 |] in
  let scaled =
    Array.map
      (fun c -> { c with Commodity.demand = c.Commodity.demand *. 8.0 })
      base
  in
  let r1 = Fleischer.solve ~tol:0.02 g base in
  let r8 = Fleischer.solve ~tol:0.02 g scaled in
  let v1 = 0.5 *. (r1.Fleischer.lower +. r1.Fleischer.upper) in
  let v8 = 0.5 *. (r8.Fleischer.lower +. r8.Fleischer.upper) in
  Alcotest.(check bool) "1/8 scaling" true
    (abs_float ((v1 /. v8) -. 8.0) < 0.5)

let bits = Int64.bits_of_float

let test_fleischer_domain_determinism () =
  (* The parallel certification passes must be bit-identical to the
     sequential path: per-source partials are folded in group order
     regardless of how groups were distributed over domains. Compare
     raw float bits, not a tolerance. *)
  let rng = Rng.make 11 in
  let g = Tb_graph.Equipment.random_regular rng ~n:24 ~degree:4 in
  let cs =
    Array.init 24 (fun i ->
        cm ~src:i ~dst:((i + 11) mod 24) ~demand:(0.5 +. Rng.float rng 1.5))
  in
  let solve_with domains =
    Unix.putenv "TOPOBENCH_DOMAINS" domains;
    Fun.protect
      ~finally:(fun () -> Unix.putenv "TOPOBENCH_DOMAINS" "")
      (fun () -> Fleischer.solve ~tol:0.05 g cs)
  in
  let r1 = solve_with "1" in
  let r4 = solve_with "4" in
  Alcotest.(check int) "same phase count" r1.Fleischer.phases
    r4.Fleischer.phases;
  Alcotest.(check bool) "lower bound bit-identical" true
    (Int64.equal (bits r1.Fleischer.lower) (bits r4.Fleischer.lower));
  Alcotest.(check bool) "upper bound bit-identical" true
    (Int64.equal (bits r1.Fleischer.upper) (bits r4.Fleischer.upper));
  Alcotest.(check bool) "flows bit-identical" true
    (Array.for_all2
       (fun a b -> Int64.equal (bits a) (bits b))
       r1.Fleischer.flow r4.Fleischer.flow)

(* ---- Solver selection ---- *)

let test_mcf_auto_small_exact () =
  let est =
    Topobench.Throughput.of_graph ring4
      (Tb_tm.Tm.make ~label:"cross" [| (0, 2, 1.0); (1, 3, 1.0) |])
  in
  check_float "small goes exact (tight bracket)" est.Mcf.lower est.Mcf.upper;
  check_float "value" 1.0 est.Mcf.value

let test_mcf_forced_approx () =
  let est =
    Topobench.Throughput.of_graph
      ~solver:(Mcf.Approx { eps = 0.3; tol = 0.03 })
      ring4
      (Tb_tm.Tm.make ~label:"one" [| (0, 2, 1.0) |])
  in
  Alcotest.(check bool) "bracket valid" true (est.Mcf.lower <= est.Mcf.upper);
  Alcotest.(check bool) "contains 2.0" true
    (est.Mcf.lower <= 2.0 && est.Mcf.upper >= 2.0 -. 0.1)

let () =
  Alcotest.run "flow"
    [
      ( "commodity",
        [
          Alcotest.test_case "normalize" `Quick test_commodity_normalize;
          Alcotest.test_case "group by source" `Quick
            test_commodity_group_by_source;
          Alcotest.test_case "negative demand" `Quick
            test_commodity_negative_demand;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "path" `Quick test_maxflow_path;
          Alcotest.test_case "k4" `Quick test_maxflow_k4;
          Alcotest.test_case "capacities" `Quick test_maxflow_capacities;
          Alcotest.test_case "cube antipodal" `Quick test_maxflow_cube;
          Alcotest.test_case "min cut" `Quick test_min_cut_matches;
        ] );
      ( "fleischer",
        [
          Qseed.to_alcotest prop_fptas_brackets_exact;
          Qseed.to_alcotest prop_fptas_flow_feasible;
          Alcotest.test_case "no commodities" `Quick test_fleischer_no_commodities;
          Alcotest.test_case "unreachable" `Quick test_fleischer_unreachable;
        ] );
      ( "fleischer-extra",
        [
          Alcotest.test_case "weighted capacities" `Quick
            test_fleischer_weighted_capacities;
          Alcotest.test_case "demand scale invariance" `Quick
            test_fleischer_demand_scale_invariance;
          Alcotest.test_case "domain-count determinism" `Quick
            test_fleischer_domain_determinism;
        ] );
      ( "exact",
        [
          Alcotest.test_case "ring cross" `Quick test_exact_known_ring;
          Alcotest.test_case "capacities" `Quick test_exact_capacity_respected;
          Alcotest.test_case "budget guard" `Quick test_exact_budget_guard;
        ] );
      ( "restricted",
        [
          Alcotest.test_case "single path halves" `Quick
            test_restricted_less_than_free;
          Alcotest.test_case "all paths ~ exact" `Quick
            test_restricted_matches_exact_with_all_paths;
        ] );
      ( "mcf",
        [
          Alcotest.test_case "auto exact" `Quick test_mcf_auto_small_exact;
          Alcotest.test_case "forced approx" `Quick test_mcf_forced_approx;
        ] );
    ]
