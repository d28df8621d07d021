module Graph = Tb_graph.Graph
module Topology = Tb_topo.Topology
module Synthetic = Tb_tm.Synthetic
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Rng = Tb_prelude.Rng
module Stats = Tb_prelude.Stats

let jelly seed n deg =
  Tb_topo.Jellyfish.make ~rng:(Rng.make seed) ~n ~degree:deg
    ~hosts_per_switch:2 ()

(* ---- Throughput ---- *)

let test_throughput_ring_matching () =
  let g = Graph.of_unit_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let topo = Topology.switch_centric ~name:"ring" ~params:"" ~hosts_per_switch:1 g in
  let tm = Tm.make ~label:"cross" [| (0, 2, 1.0); (1, 3, 1.0) |] in
  let est = Topobench.Throughput.of_tm topo tm in
  Alcotest.(check (float 1e-6)) "ring cross" 1.0 est.Mcf.value

let test_throughput_capacity_monotone () =
  (* Doubling capacities doubles throughput. *)
  let topo = jelly 3 12 4 in
  let tm = Synthetic.longest_matching topo in
  let t1 = (Topobench.Throughput.of_tm topo tm).Mcf.value in
  let g2 = Graph.with_uniform_capacity topo.Topology.graph 2.0 in
  let t2 = (Topobench.Throughput.of_graph g2 tm).Mcf.value in
  Alcotest.(check bool) "doubled" true
    (abs_float ((t2 /. t1) -. 2.0) < 0.15)

let test_throughput_deterministic () =
  let topo = jelly 4 12 4 in
  let tm = Synthetic.longest_matching topo in
  let a = (Topobench.Throughput.of_tm topo tm).Mcf.value in
  let b = (Topobench.Throughput.of_tm topo tm).Mcf.value in
  Alcotest.(check (float 1e-12)) "same result" a b

(* ---- Pinned brackets ----

   The exact bits every solver selection produces on small instances,
   through both entry points ([of_tm] and [of_graph]) and through the
   experiments' fault-tolerant chain ([Common.harness_policy]). Each
   selection routes through one solve chain, so any change to how a
   selection maps onto it shows up here as a moved bit. The instances
   cover both sides of [Auto]'s exact-LP threshold: hypercube:3 LM has
   193 LP variables, the 24-switch Jellyfish LM has 2881. *)

let bits =
  Alcotest.testable
    (fun ppf x -> Fmt.pf ppf "%h" x)
    (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let check_bits msg (value, lower, upper) (e : Mcf.estimate) =
  Alcotest.(check (list bits)) msg [ value; lower; upper ]
    [ e.Mcf.value; e.Mcf.lower; e.Mcf.upper ]

let pin_hypercube () = Tb_topo.Hypercube.make ~dim:3 ()
let pin_jelly () = jelly 7 24 5
let pin_approx = Mcf.Approx { eps = 0.4; tol = 0.1 }

let test_pinned_of_tm () =
  let hc = pin_hypercube () and jf = pin_jelly () in
  let ft = Tb_topo.Fattree.make ~k:6 () in
  let of_tm = Topobench.Throughput.of_tm in
  check_bits "Auto, exact side (hypercube:3 LM)" (0x1p+0, 0x1p+0, 0x1p+0)
    (of_tm hc (Synthetic.longest_matching hc));
  check_bits "Auto, FPTAS side (jellyfish LM)"
    (0x1.78e2aa8db4d7bp-1, 0x1.73a37d356edc2p-1, 0x1.7e21d7e5fad34p-1)
    (of_tm jf (Synthetic.longest_matching jf));
  check_bits "Approx (fattree:6 LM, eps 0.4, tol 0.1)"
    (0x1.ffffffffffff6p-1, 0x1p+0, 0x1.fffffffffffecp-1)
    (of_tm ~solver:pin_approx ft (Synthetic.longest_matching ft));
  check_bits "Exact_lp (hypercube:3 A2A)"
    (0x1.0000000000007p+1, 0x1.0000000000007p+1, 0x1.0000000000007p+1)
    (of_tm ~solver:Mcf.Exact_lp hc (Synthetic.all_to_all hc))

let test_pinned_of_graph () =
  let hc = pin_hypercube () and jf = pin_jelly () in
  let doubled t = Graph.with_uniform_capacity t.Topology.graph 2.0 in
  let hc_lm = Synthetic.longest_matching hc in
  let jf_lm = Synthetic.longest_matching jf in
  let of_graph = Topobench.Throughput.of_graph in
  check_bits "Auto (doubled jellyfish LM)"
    (0x1.78e2aa8db4d7bp+0, 0x1.73a37d356edc2p+0, 0x1.7e21d7e5fad34p+0)
    (of_graph (doubled jf) jf_lm);
  check_bits "Exact_lp (doubled hypercube:3 LM)" (0x1p+1, 0x1p+1, 0x1p+1)
    (of_graph ~solver:Mcf.Exact_lp (doubled hc) hc_lm);
  check_bits "Approx (doubled jellyfish LM, eps 0.4, tol 0.1)"
    (0x1.7fe9de46c581fp+0, 0x1.6e978d4fdf3b4p+0, 0x1.913c2f3dabc8ap+0)
    (of_graph ~solver:pin_approx (doubled jf) jf_lm)

let test_pinned_harness_policy () =
  let module Solve = Tb_harness.Solve in
  let module Common = Tb_experiments.Common in
  let solve topo tm =
    Solve.throughput ~policy:(Common.harness_policy Common.default topo) topo tm
  in
  let hc2 = Tb_topo.Hypercube.make ~dim:2 () in
  let o = solve hc2 (Synthetic.all_to_all hc2) in
  Alcotest.(check string) "hypercube:2 rung" "exact" (Solve.rung_name o.Solve.rung);
  check_bits "hypercube:2 A2A" (0x1p+1, 0x1p+1, 0x1p+1) o.Solve.estimate;
  let jf = pin_jelly () in
  let o = solve jf (Synthetic.longest_matching jf) in
  Alcotest.(check string) "jellyfish rung" "fptas" (Solve.rung_name o.Solve.rung);
  check_bits "jellyfish LM"
    (0x1.7aa53fa3de6d2p-1, 0x1.7395d530cd7d8p-1, 0x1.81b4aa16ef5ccp-1)
    o.Solve.estimate

(* Two triangles with one demand crossing between them: the throughput
   is exactly 0, and every selection must say so instead of raising. *)
let test_disconnected_demand_zero () =
  let g =
    Graph.of_unit_edges ~n:6
      [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]
  in
  let tm = Tm.make ~label:"across" [| (0, 3, 1.0) |] in
  List.iter
    (fun (name, solver) ->
      check_bits name (0.0, 0.0, 0.0)
        (Topobench.Throughput.of_graph ~solver g tm))
    [ ("Auto", Mcf.Auto); ("Exact_lp", Mcf.Exact_lp); ("Approx", pin_approx) ]

(* ---- Theorem 2 lower bound ---- *)

let theorem2_check topo seed =
  let a2a = Topobench.Throughput.of_tm topo (Synthetic.all_to_all topo) in
  let lb = a2a.Mcf.upper /. 2.0 in
  let tms =
    [
      Synthetic.random_matching ~k:1 (Rng.make seed) topo;
      Synthetic.longest_matching topo;
    ]
  in
  List.iter
    (fun tm ->
      let t = Topobench.Throughput.of_tm topo tm in
      Alcotest.(check bool)
        (Printf.sprintf "%s >= A2A/2 on %s" (Tm.label tm) (Topology.label topo))
        true
        (* Allow the FPTAS bracket slack on both sides. *)
        (t.Mcf.upper >= lb *. 0.97))
    tms

let test_theorem2_families () =
  theorem2_check (Tb_topo.Hypercube.make ~hosts_per_switch:2 ~dim:4 ()) 1;
  theorem2_check (Tb_topo.Fattree.make ~k:4 ()) 2;
  theorem2_check (jelly 5 16 4) 3;
  theorem2_check (Tb_topo.Bcube.make ~n:3 ~k:1 ()) 4;
  theorem2_check (Tb_topo.Dcell.make ~n:3 ~k:1 ()) 5

(* The paper's hypercube observation: LM attains the bound exactly. *)
let test_hypercube_lm_attains_bound () =
  let topo = Tb_topo.Hypercube.make ~dim:5 () in
  let a2a = (Topobench.Throughput.of_tm topo (Synthetic.all_to_all topo)).Mcf.value in
  let lm = (Topobench.Throughput.of_tm topo (Synthetic.longest_matching topo)).Mcf.value in
  Alcotest.(check bool) "LM ~ A2A/2" true
    (abs_float (lm /. (a2a /. 2.0) -. 1.0) < 0.06)

(* And the fat tree observation: LM is as easy as A2A. A2A excludes
   self-flows, so its per-endpoint volume is (n_e - 1)/n_e of LM's; the
   comparison corrects for that factor. *)
let test_fattree_lm_equals_a2a () =
  let topo = Tb_topo.Fattree.make ~k:4 () in
  let ne = float_of_int (Array.length (Topology.endpoint_nodes topo)) in
  let a2a = (Topobench.Throughput.of_tm topo (Synthetic.all_to_all topo)).Mcf.value in
  let lm = (Topobench.Throughput.of_tm topo (Synthetic.longest_matching topo)).Mcf.value in
  Alcotest.(check bool) "LM ~ A2A (volume-corrected)" true
    (lm >= a2a *. ((ne -. 1.0) /. ne) *. 0.93)

(* ---- Relative throughput ---- *)

let test_relative_jellyfish_near_one () =
  let topo = jelly 6 20 5 in
  let r =
    Topobench.Relative.compute_gen ~iterations:3 ~rng:(Rng.make 7) topo
      (fun _ t -> Synthetic.longest_matching t)
  in
  Alcotest.(check bool) "random vs random ~ 1" true
    (abs_float (r.Topobench.Relative.relative.Stats.mean -. 1.0) < 0.15)

let test_relative_structure () =
  let topo = Tb_topo.Hypercube.make ~hosts_per_switch:2 ~dim:4 () in
  let r =
    Topobench.Relative.compute_gen ~iterations:2 ~rng:(Rng.make 8) topo
      (fun _ t -> Synthetic.longest_matching t)
  in
  Alcotest.(check int) "iterations recorded" 2
    r.Topobench.Relative.relative.Stats.n;
  Alcotest.(check bool) "positive" true
    (r.Topobench.Relative.relative.Stats.mean > 0.0)

(* ---- LLSKR ---- *)

(* The exact arc lists are pinned: equal-length paths abound in both
   graphs, so these lists guard the shortest-path engine's parent-arc
   tie-breaking bit for bit. *)
let check_paths msg expected paths =
  Alcotest.(check (array (list int))) msg expected paths

let test_diverse_paths_distinct () =
  let topo = Tb_topo.Fattree.make ~k:4 () in
  let g = topo.Topology.graph in
  let endpoints = Topology.endpoint_nodes topo in
  let u = endpoints.(0) and v = endpoints.(Array.length endpoints - 1) in
  let paths = Topobench.Llskr.diverse_paths g ~src:u ~dst:v ~k:4 in
  Alcotest.(check int) "four paths" 4 (Array.length paths);
  (* In a k=4 fat tree the 4 diverse paths leave on distinct uplinks
     (2 aggs x 2 cores behind each). *)
  Alcotest.(check bool) "distinct paths" true
    (List.length (List.sort_uniq compare (Array.to_list paths)) = 4);
  check_paths "pinned arcs"
    [| [ 62; 54; 7; 11 ]; [ 60; 48; 1; 9 ]; [ 62; 52; 5; 11 ]; [ 60; 50; 3; 9 ] |]
    paths

let test_diverse_paths_valid () =
  let topo = jelly 9 16 4 in
  let g = topo.Topology.graph in
  let paths = Topobench.Llskr.diverse_paths g ~src:0 ~dst:10 ~k:3 in
  Array.iter
    (fun arcs ->
      let rec walk v = function
        | [] -> Alcotest.(check int) "ends at dst" 10 v
        | a :: rest ->
          Alcotest.(check int) "contiguous" v (Graph.arc_src g a);
          walk (Graph.arc_dst g a) rest
      in
      walk 0 arcs)
    paths;
  check_paths "pinned arcs" [| [ 48 ]; [ 10; 19; 46 ]; [ 48 ] |] paths

let test_diverse_paths_reject_k0 () =
  (* No paths requested is a caller error, not a connectivity verdict. *)
  let topo = Tb_topo.Fattree.make ~k:4 () in
  let g = topo.Topology.graph in
  let rejected = Invalid_argument "Llskr.diverse_paths: k < 1" in
  Alcotest.check_raises "k = 0" rejected (fun () ->
      ignore (Topobench.Llskr.diverse_paths g ~src:0 ~dst:7 ~k:0));
  Alcotest.check_raises "counting estimate, k_paths = 0" rejected (fun () ->
      ignore (Topobench.Llskr.counting_estimate topo ~k_paths:0))

let test_pair_paths_orientation () =
  (* Every unordered endpoint pair's paths come from one [diverse_paths]
     call, smaller node to larger; the reverse pair gets the arc
     reversals. *)
  let topo = jelly 9 16 4 in
  let g = topo.Topology.graph in
  let rev = Array.map (List.rev_map Graph.arc_rev) in
  let endpoints = Topology.endpoint_nodes topo in
  let routed = Topobench.Llskr.path_sets g ~k:3 in
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          if u <> v then begin
            let fwd = Topobench.Llskr.diverse_paths g ~src:(min u v) ~dst:(max u v) ~k:3 in
            check_paths (Printf.sprintf "%d->%d" u v) (if u < v then fwd else rev fwd)
              (routed u v)
          end)
        endpoints)
    endpoints;
  check_paths "path_sets reverse" (rev (routed 0 10)) (routed 10 0)

let test_llskr_lp_dominates_counting_shape () =
  (* Both estimates must be positive and finite on a small fat tree. *)
  let topo = Tb_topo.Fattree.make ~k:4 () in
  let c = Topobench.Llskr.counting_estimate topo ~k_paths:2 in
  let l = Topobench.Llskr.lp_estimate ~tol:0.05 topo ~k_paths:2 in
  Alcotest.(check bool) "positive counting" true (c > 0.0 && c < 10.0);
  Alcotest.(check bool) "positive lp" true (l > 0.0 && l < 10.0)

let () =
  Alcotest.run "core"
    [
      ( "throughput",
        [
          Alcotest.test_case "ring matching" `Quick test_throughput_ring_matching;
          Alcotest.test_case "capacity monotone" `Quick
            test_throughput_capacity_monotone;
          Alcotest.test_case "deterministic" `Quick test_throughput_deterministic;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "of_tm per solver" `Quick test_pinned_of_tm;
          Alcotest.test_case "of_graph per solver" `Quick test_pinned_of_graph;
          Alcotest.test_case "harness policy" `Quick test_pinned_harness_policy;
          Alcotest.test_case "disconnected demand is 0" `Quick
            test_disconnected_demand_zero;
        ] );
      ( "theorem2",
        [
          Alcotest.test_case "families" `Slow test_theorem2_families;
          Alcotest.test_case "hypercube LM attains" `Quick
            test_hypercube_lm_attains_bound;
          Alcotest.test_case "fattree LM = A2A" `Quick test_fattree_lm_equals_a2a;
        ] );
      ( "relative",
        [
          Alcotest.test_case "jellyfish ~ 1" `Slow test_relative_jellyfish_near_one;
          Alcotest.test_case "structure" `Quick test_relative_structure;
        ] );
      ( "llskr",
        [
          Alcotest.test_case "diverse distinct" `Quick test_diverse_paths_distinct;
          Alcotest.test_case "paths valid" `Quick test_diverse_paths_valid;
          Alcotest.test_case "zero k rejected" `Quick test_diverse_paths_reject_k0;
          Alcotest.test_case "pair paths orientation" `Quick
            test_pair_paths_orientation;
          Alcotest.test_case "estimates sane" `Slow
            test_llskr_lp_dominates_counting_shape;
        ] );
    ]
