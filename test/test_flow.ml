module Graph = Tb_graph.Graph
module Rng = Tb_prelude.Rng
module Commodity = Tb_flow.Commodity
module Maxflow = Tb_flow.Maxflow
module Fleischer = Tb_flow.Fleischer
module Exact = Tb_flow.Exact
module Restricted = Tb_flow.Restricted
module Mcf = Tb_flow.Mcf
module Colgen = Tb_flow.Colgen
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

(* An eps outside (0, 1) leaves a length stale right after its refresh,
   so the first phase would never end: the MWU state refuses it. *)
let test_fleischer_rejects_bad_eps () =
  List.iter
    (fun eps ->
      Alcotest.check_raises
        (Printf.sprintf "eps %g" eps)
        (Invalid_argument "Mwu.create: eps must lie in (0, 1)") (fun () ->
          ignore
            (Fleischer.solve ~eps ring4 [| cm ~src:0 ~dst:2 ~demand:1.0 |])))
    [ -0.5; 0.0; 1.0; Float.nan ]

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

let all_paths g src dst =
  Array.of_list
    (List.map
       (fun p -> p.Kshortest.arcs)
       (Kshortest.k_shortest g ~len:(fun _ -> 1.0) ~src ~dst ~k:16))

let test_restricted_less_than_free () =
  (* Restricting ring flows to single clockwise paths halves throughput:
     0->2 takes arcs 0 = (0->1) and 2 = (1->2), 1->3 takes arcs 2 and
     4 = (2->3). *)
  let r =
    Restricted.solve ~tol:0.02 ring4
      ~paths:(fun src _ -> if src = 0 then [| [ 0; 2 ] |] else [| [ 2; 4 ] |])
      [| cm ~src:0 ~dst:2 ~demand:1.0; cm ~src:1 ~dst:3 ~demand:1.0 |]
  in
  Alcotest.(check bool) "about 0.5" true
    (r.Restricted.lower <= 0.51 && r.Restricted.upper >= 0.49)

let test_restricted_rejects_broken_paths () =
  let rejects msg what path_set =
    Alcotest.check_raises msg
      (Invalid_argument ("Restricted.solve: commodity 0->2: " ^ what))
      (fun () ->
        ignore
          (Restricted.solve ring4
             ~paths:(fun src _ -> if src = 1 then [| [ 2; 4 ] |] else path_set)
             [| cm ~src:1 ~dst:3 ~demand:1.0; cm ~src:0 ~dst:2 ~demand:1.0 |]))
  in
  let broken i = Printf.sprintf "path %d is not an arc chain from src to dst" i in
  rejects "arc 2->3 for 0->2" (broken 0) [| [ 4 ] |];
  rejects "empty path" (broken 1) [| [ 0; 2 ]; [] |];
  rejects "arc out of range" (broken 0) [| [ 0; 99 ] |];
  rejects "stops short of dst" (broken 0) [| [ 0 ] |];
  rejects "empty path set" "empty path set" [||]

let test_restricted_matches_exact_with_all_paths () =
  let cs =
    [| cm ~src:0 ~dst:7 ~demand:1.0; cm ~src:3 ~dst:4 ~demand:1.0 |]
  in
  let exact, _ = Exact.solve cube3 cs in
  let r = Restricted.solve ~tol:0.02 cube3 ~paths:(all_paths cube3) cs in
  (* With a rich path set the restricted optimum is close to exact (it
     cannot exceed it). *)
  Alcotest.(check bool) "le exact" true (r.Restricted.lower <= exact +. 1e-6);
  Alcotest.(check bool) "close to exact" true
    (r.Restricted.upper >= exact *. 0.85)

(* Pinned Restricted trajectories: the exact bits of lower and upper and
   the phase count, on fattree:6 LM and its same-equipment Jellyfish.
   The Routing cases run the benchsuite's ksp-routing settings (eps 0.4,
   tol 0.1); their phase count is read off the solver's phase counter.
   The 1531-phase solve at the default eps/tol runs far past
   Fleischer's 120-phase stall window, where an eps anneal would move
   its bits. *)

let pin_bits =
  Alcotest.testable
    (fun ppf x -> Fmt.pf ppf "%h" x)
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let check_pin msg (lower, upper, phases) (lower', upper', phases') =
  Alcotest.(check (list pin_bits)) (msg ^ " bounds") [ lower; upper ] [ lower'; upper' ];
  Alcotest.(check int) (msg ^ " phases") phases phases'

let pin_fattree () = Tb_topo.Fattree.make ~k:6 ()

let pin_jellyfish () =
  Tb_topo.Jellyfish.matching_equipment ~rng:(Rng.make 42) (pin_fattree ())

let restricted_phases = Tb_obs.Metrics.counter "restricted.phases"

let test_restricted_pinned_ksp () =
  let routed topo k =
    let tm = Tb_tm.Synthetic.longest_matching topo in
    let before = Tb_obs.Metrics.count restricted_phases in
    let r = Topobench.Routing.ksp_throughput ~eps:0.4 ~tol:0.1 topo tm ~k in
    ( r.Topobench.Routing.lower,
      r.Topobench.Routing.upper,
      Tb_obs.Metrics.count restricted_phases - before )
  in
  let ft = pin_fattree () and jf = pin_jellyfish () in
  check_pin "fattree:6 k=1" (0x1.c71c71c71c72p-4, 0x1.f2372d691a9bap-4, 15) (routed ft 1);
  check_pin "fattree:6 k=4" (0x1.c71c71c71c71ep-2, 0x1.edc21a5725957p-2, 65) (routed ft 4);
  check_pin "jellyfish k=1" (0x1.5555555555555p-3, 0x1.6bd39b4e9afb2p-3, 25) (routed jf 1);
  check_pin "jellyfish k=4" (0x1.eca56368aff1ep-2, 0x1.0e43ba2fca142p-1, 145) (routed jf 4)

let test_restricted_pinned_direct () =
  let jf = pin_jellyfish () in
  let g = jf.Tb_topo.Topology.graph in
  let tm = Tb_tm.Synthetic.longest_matching jf in
  let paths src dst = Topobench.Llskr.diverse_paths g ~src ~dst ~k:4 in
  let cs = Tb_tm.Tm.commodities tm in
  let pin (r : Restricted.result) =
    (r.Restricted.lower, r.Restricted.upper, r.Restricted.phases)
  in
  check_pin "default eps/tol, past the stall window"
    (0x1.f1b24e5818b4cp-2, 0x1.004758ad3e1cp-1, 1531)
    (pin (Restricted.solve g ~paths cs));
  check_pin "eps 0.4, tol 0.1"
    (0x1.e9bd37a6f4de9p-2, 0x1.0d39b010e8026p-1, 165)
    (pin (Restricted.solve ~eps:0.4 ~tol:0.1 g ~paths cs))

(* Mwu keeps the cold [1/cap] start unless the warm vector has one
   strictly positive finite length per arc: an unusable vector must
   reproduce the cold solve's bits. *)
let test_fleischer_unusable_warm_is_cold () =
  let jf = pin_jellyfish () in
  let g = jf.Tb_topo.Topology.graph in
  let cs = Tb_tm.Tm.commodities (Tb_tm.Synthetic.longest_matching jf) in
  let solve ?warm_lengths () = Fleischer.solve ~eps:0.4 ~tol:0.1 ?warm_lengths g cs in
  let pin (r : Fleischer.result) =
    (r.Fleischer.lower, r.Fleischer.upper, r.Fleischer.phases)
  in
  let cold = solve () in
  let lengths = cold.Fleischer.lengths in
  check_pin "warm vector too short is cold" (pin cold)
    (pin (solve ~warm_lengths:(Array.sub lengths 1 (Array.length lengths - 1)) ()));
  let zeroed = Array.copy lengths in
  zeroed.(0) <- 0.0;
  check_pin "warm vector with a zero is cold" (pin cold)
    (pin (solve ~warm_lengths:zeroed ()))

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
  (* A solve runs on one domain, so its result must not depend on the
     domain count: this guards against a domain fan-out (and a
     reduction order that follows it) coming back. Compare raw float
     bits, not a tolerance. *)
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

(* ---- Colgen ---- *)

(* 201 disjoint unit-capacity two-hop paths from 0 to 1: the optimum
   needs all 201 columns, one priced in per iteration, so a solver that
   stopped pricing after a fixed number of iterations would return a
   smaller master value as if it were exact. *)
let test_colgen_many_paths () =
  let width = 201 in
  let edges =
    List.concat
      (List.init width (fun i -> [ (0, 2 + i, 1.0); (2 + i, 1, 1.0) ]))
  in
  let g = Graph.of_edges ~n:(2 + width) edges in
  let r = Colgen.solve g [| cm ~src:0 ~dst:1 ~demand:1.0 |] in
  check_float "all paths carry flow" (float_of_int width) r.Colgen.value;
  Alcotest.(check int) "one column per path" width r.Colgen.columns

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
          Alcotest.test_case "rejects bad eps" `Quick
            test_fleischer_rejects_bad_eps;
        ] );
      ( "fleischer-extra",
        [
          Alcotest.test_case "weighted capacities" `Quick
            test_fleischer_weighted_capacities;
          Alcotest.test_case "demand scale invariance" `Quick
            test_fleischer_demand_scale_invariance;
          Alcotest.test_case "domain-count determinism" `Quick
            test_fleischer_domain_determinism;
          Alcotest.test_case "unusable warm vector is cold" `Quick
            test_fleischer_unusable_warm_is_cold;
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
          Alcotest.test_case "broken paths rejected" `Quick
            test_restricted_rejects_broken_paths;
          Alcotest.test_case "all paths ~ exact" `Quick
            test_restricted_matches_exact_with_all_paths;
          Alcotest.test_case "pinned ksp routing" `Quick test_restricted_pinned_ksp;
          Alcotest.test_case "pinned direct" `Quick
            test_restricted_pinned_direct;
        ] );
      ( "mcf",
        [
          Alcotest.test_case "auto exact" `Quick test_mcf_auto_small_exact;
          Alcotest.test_case "forced approx" `Quick test_mcf_forced_approx;
        ] );
      ( "colgen",
        [
          Alcotest.test_case "201 disjoint paths" `Quick
            test_colgen_many_paths;
        ] );
    ]
