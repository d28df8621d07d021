module Graph = Tb_graph.Graph
module Traversal = Tb_graph.Traversal
module Sssp = Tb_graph.Sssp
module Permutation = Tb_graph.Permutation
module Hungarian = Tb_graph.Hungarian
module Kshortest = Tb_graph.Kshortest
module Spectral = Tb_graph.Spectral
module Equipment = Tb_graph.Equipment
module Rng = Tb_prelude.Rng

let check_float = Alcotest.(check (float 1e-6))

(* A deterministic random connected simple graph generator for property
   tests. *)
let random_graph rng ~n ~extra =
  (* Spanning path plus [extra] random chords. *)
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v - 1, v) :: !edges
  done;
  let have = Hashtbl.create 16 in
  List.iter (fun (u, v) -> Hashtbl.replace have (min u v, max u v) ()) !edges;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < 100 * extra do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Hashtbl.mem have (min u v, max u v)) then begin
      Hashtbl.replace have (min u v, max u v) ();
      edges := (u, v) :: !edges;
      incr added
    end
  done;
  Graph.of_unit_edges ~n !edges

let graph_gen =
  QCheck.Gen.(
    map2
      (fun seed n -> random_graph (Rng.make seed) ~n ~extra:(n / 2))
      small_nat (int_range 3 24))

let arbitrary_graph =
  QCheck.make ~print:(fun g -> Format.asprintf "%a" Graph.pp g) graph_gen

(* ---- Graph construction ---- *)

let test_graph_basic () =
  let g = Graph.of_unit_edges ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check int) "nodes" 3 (Graph.num_nodes g);
  Alcotest.(check int) "edges" 2 (Graph.num_edges g);
  Alcotest.(check int) "arcs" 4 (Graph.num_arcs g);
  Alcotest.(check int) "degree 1" 2 (Graph.degree g 1);
  Alcotest.(check bool) "has edge" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "no edge" false (Graph.has_edge g 0 2);
  check_float "total cap (directed)" 4.0 (Graph.total_capacity g)

let test_graph_arc_conventions () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 2.5) ] in
  Alcotest.(check (pair int int)) "arc 0" (0, 1) (Graph.arc_endpoints g 0);
  Alcotest.(check (pair int int)) "arc 1" (1, 0) (Graph.arc_endpoints g 1);
  Alcotest.(check int) "rev" 1 (Graph.arc_rev 0);
  Alcotest.(check int) "rev rev" 0 (Graph.arc_rev 1);
  check_float "cap both directions" 2.5 (Graph.arc_cap g 1)

let test_graph_rejects_self_loop () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.of_edges: self-loop") (fun () ->
      ignore (Graph.of_unit_edges ~n:2 [ (1, 1) ]))

let test_graph_rejects_parallel () =
  Alcotest.check_raises "parallel"
    (Invalid_argument "Graph.of_edges: parallel edge") (fun () ->
      ignore (Graph.of_unit_edges ~n:2 [ (0, 1); (1, 0) ]))

let test_graph_rejects_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.of_edges: node out of range") (fun () ->
      ignore (Graph.of_unit_edges ~n:2 [ (0, 5) ]))

(* [c <= 0.0] is false for NaN, so non-finite capacities need their own
   test; an infinite one would leave the FPTAS rung's gap at infinity. *)
let test_graph_rejects_non_finite () =
  List.iter
    (fun c ->
      Alcotest.check_raises
        (Printf.sprintf "of_edges cap %h" c)
        (Invalid_argument "Graph.of_edges: non-finite capacity") (fun () ->
          ignore (Graph.of_edges ~n:3 [ (0, 1, 1.0); (1, 2, c) ]));
      Alcotest.check_raises
        (Printf.sprintf "Builder.add cap %h" c)
        (Invalid_argument "Graph.Builder.add: non-finite capacity") (fun () ->
          Graph.Builder.add (Graph.Builder.create ~n:3 ()) 0 1 c))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ---- Traversal ---- *)

let test_bfs_path_graph () =
  let g = Graph.of_unit_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3 |]
    (Traversal.bfs_dist g 0)

let test_bfs_disconnected () =
  let g = Graph.of_unit_edges ~n:3 [ (0, 1) ] in
  Alcotest.(check int) "unreached" (-1) (Traversal.bfs_dist g 0).(2);
  Alcotest.(check bool) "not connected" false (Traversal.is_connected g)

let test_diameter_cycle () =
  let n = 8 in
  let g = Graph.of_unit_edges ~n (List.init n (fun i -> (i, (i + 1) mod n))) in
  Alcotest.(check int) "cycle diameter" 4 (Traversal.diameter g)

let test_mean_distance_k3 () =
  let g = Graph.of_unit_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  check_float "complete graph mean dist" 1.0 (Traversal.mean_distance g)

let test_components () =
  let g = Graph.of_unit_edges ~n:5 [ (0, 1); (2, 3) ] in
  let k, comp = Traversal.components g in
  Alcotest.(check int) "three components" 3 k;
  Alcotest.(check bool) "0,1 together" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "1,2 apart" true (comp.(1) <> comp.(2))

let prop_apsp_symmetric =
  QCheck.Test.make ~name:"APSP symmetric on undirected graphs" ~count:30
    arbitrary_graph (fun g ->
      let d = Traversal.apsp g in
      let n = Graph.num_nodes g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if d.(u).(v) <> d.(v).(u) then ok := false
        done
      done;
      !ok)

(* ---- CSR layout ----

   The CSR Bigarrays are the ground truth the traversal and flow hot loops
   walk; check them against a naive reconstruction from the edge list on
   every topology family the catalog knows. *)

let check_csr_agrees name g =
  let n = Graph.num_nodes g in
  let adj_start = Graph.ba_adj_start g in
  let adj_node = Graph.ba_adj_node g in
  let adj_arc = Graph.ba_adj_arc g in
  let arc_caps = Graph.ba_arc_caps g in
  Alcotest.(check int)
    (name ^ ": row pointers cover all arcs")
    (Graph.num_arcs g) adj_start.{n};
  (* Reference adjacency from the edge records. *)
  let ref_neighbors = Array.make n [] in
  Graph.iter_edges
    (fun _ e ->
      ref_neighbors.(e.Graph.u) <- e.Graph.v :: ref_neighbors.(e.Graph.u);
      ref_neighbors.(e.Graph.v) <- e.Graph.u :: ref_neighbors.(e.Graph.v))
    g;
  for u = 0 to n - 1 do
    let lo = adj_start.{u} and hi = adj_start.{u + 1} in
    Alcotest.(check int)
      (Printf.sprintf "%s: degree of %d" name u)
      (List.length ref_neighbors.(u))
      (hi - lo);
    let csr_row = List.init (hi - lo) (fun i -> adj_node.{lo + i}) in
    Alcotest.(check (list int))
      (Printf.sprintf "%s: neighbor set of %d" name u)
      (List.sort compare ref_neighbors.(u))
      (List.sort compare csr_row);
    for i = lo to hi - 1 do
      let v = adj_node.{i} and a = adj_arc.{i} in
      Alcotest.(check int) (name ^ ": arc src") u (Graph.arc_src g a);
      Alcotest.(check int) (name ^ ": arc dst") v (Graph.arc_dst g a);
      Alcotest.(check (float 0.0))
        (name ^ ": arc cap matches edge")
        (Graph.edge g (a / 2)).Graph.cap
        arc_caps.{a}
    done
  done

let test_csr_all_families () =
  List.iter
    (fun family ->
      match Tb_topo.Catalog.small ~rng:(Rng.make 1) family with
      | [] -> ()
      | topo :: _ ->
        check_csr_agrees
          (Tb_topo.Catalog.family_name family)
          topo.Tb_topo.Topology.graph)
    Tb_topo.Catalog.all_families

(* The arc-slot map inverts the packed arc ids: every arc sits at its
   slot, on catalog graphs, on their uniform-capacity views (which share
   the CSR columns) and on builder graphs in both edge orders. *)
let check_arc_slot name g =
  let adj_arc = Graph.ba_adj_arc g and slot = Graph.ba_arc_slot g in
  Alcotest.(check int) (name ^ ": slot column length") (Graph.num_arcs g)
    (Bigarray.Array1.dim slot);
  for a = 0 to Graph.num_arcs g - 1 do
    if adj_arc.{slot.{a}} <> a then
      Alcotest.failf "%s: arc %d at slot %d holds arc %d" name a slot.{a}
        adj_arc.{slot.{a}}
  done

let test_arc_slot_catalog () =
  List.iter
    (fun family ->
      match Tb_topo.Catalog.small ~rng:(Rng.make 1) family with
      | [] -> ()
      | topo :: _ ->
        let name = Tb_topo.Catalog.family_name family in
        let g = topo.Tb_topo.Topology.graph in
        check_arc_slot name g;
        check_arc_slot (name ^ " uniform view") (Graph.with_uniform_capacity g 2.0))
    Tb_topo.Catalog.all_families

let prop_arc_slot_builder =
  QCheck.Test.make ~name:"arc slot inverts the CSR arcs of builder graphs" ~count:40
    QCheck.(pair small_nat (int_range 2 30))
    (fun (seed, n) ->
      let src = random_graph (Rng.make seed) ~n ~extra:n in
      List.for_all
        (fun reverse ->
          let b = Graph.Builder.create ~n () in
          Graph.iter_edges (fun _ e -> Graph.Builder.add b e.Graph.u e.Graph.v 1.0) src;
          let g = Graph.Builder.finish ~reverse b in
          let adj_arc = Graph.ba_adj_arc g and slot = Graph.ba_arc_slot g in
          let ok = ref true in
          for a = 0 to Graph.num_arcs g - 1 do
            if adj_arc.{slot.{a}} <> a then ok := false
          done;
          !ok)
        [ false; true ])

let test_csr_succ_view () =
  let g = random_graph (Rng.make 9) ~n:20 ~extra:15 in
  for u = 0 to Graph.num_nodes g - 1 do
    let from_iter = ref [] in
    Graph.iter_succ (fun v a -> from_iter := (v, a) :: !from_iter) g u;
    Alcotest.(check (list (pair int int)))
      "succ = iter_succ" (Array.to_list (Graph.succ g u))
      (List.rev !from_iter)
  done

(* ---- Dijkstra ---- *)

(* Per-arc lengths as the Bigarray the [Sssp] kernels read: arc [a]'s
   length at its CSR slot. *)
let floats_of_fun g f =
  let len = Graph.make_floats (Graph.num_arcs g) in
  let slot = Graph.ba_arc_slot g in
  for a = 0 to Graph.num_arcs g - 1 do
    len.{slot.{a}} <- f a
  done;
  len

(* Oracle check for the heap Dijkstra: the certificate checker's
   Bellman-Ford relaxes every arc in rounds to a fixpoint with the same
   lengths, so any disagreement in distances (including infinities on an
   unreachable island) is a bug in the CSR relaxation loop or the reset
   bookkeeping. *)
let prop_dijkstra_matches_bellman_ford =
  QCheck.Test.make ~name:"heap dijkstra = Bellman-Ford oracle" ~count:40
    QCheck.(pair small_nat (int_range 4 20))
    (fun (seed, n) ->
      let rng = Rng.make (seed + 1) in
      (* Connected core on [0, n) plus an island {n, n+1} that is
         unreachable from the source. *)
      let edges = ref [ (n, n + 1) ] in
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
      let g = Graph.of_unit_edges ~n:(n + 2) !edges in
      let lens = Array.init (Graph.num_arcs g) (fun _ -> Rng.float rng 10.0) in
      let dist = Tb_cert.Cert.bellman_ford g ~len:lens ~src:0 in
      let len = floats_of_fun g (Array.get lens) in
      let st = Sssp.create_state (n + 2) in
      Sssp.dijkstra g ~len ~src:0 st;
      let ok = ref true in
      for v = 0 to n + 1 do
        let d = Sssp.distance st v in
        if dist.(v) = infinity then begin
          if d <> infinity then ok := false
        end
        else if abs_float (dist.(v) -. d) > 1e-9 then ok := false
      done;
      (* Early exit agrees on the target's distance, both reachable
         targets and the unreachable island. *)
      let st2 = Sssp.create_state (n + 2) in
      List.iter
        (fun t ->
          Sssp.dijkstra ~dsts:[| t |] g ~len ~src:0 st2;
          let d = Sssp.distance st2 t in
          if dist.(t) = infinity then begin
            if d <> infinity then ok := false
          end
          else if abs_float (dist.(t) -. d) > 1e-9 then ok := false)
        [ Rng.int rng n; n + 1 ];
      !ok)

let prop_dijkstra_matches_bfs_on_unit =
  QCheck.Test.make ~name:"dijkstra = BFS with unit lengths" ~count:30
    arbitrary_graph (fun g ->
      let bfs = Traversal.bfs_dist g 0 in
      let dd = Sssp.dijkstra_dist g ~len:(fun _ -> 1.0) ~src:0 in
      Array.for_all2
        (fun b d ->
          if b < 0 then d = infinity else abs_float (float_of_int b -. d) < 1e-9)
        bfs dd)

let test_dijkstra_weighted () =
  (* 0-1 cheap+long vs direct expensive. *)
  let g =
    Graph.of_edges ~n:3 [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0) ]
  in
  let len a =
    (* Arc lengths: make the direct 0-2 arc cost 5, others 1. *)
    let u, v = Graph.arc_endpoints g a in
    if (u = 0 && v = 2) || (u = 2 && v = 0) then 5.0 else 1.0
  in
  let d = Sssp.dijkstra_dist g ~len ~src:0 in
  check_float "via middle" 2.0 d.(2)

let test_dijkstra_path_arcs () =
  let g = Graph.of_unit_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let st = Sssp.create_state 4 in
  Sssp.dijkstra ~dsts:[| 3 |] g ~len:(floats_of_fun g (fun _ -> 1.0)) ~src:0 st;
  match Sssp.path_arcs g st 3 with
  | None -> Alcotest.fail "no path"
  | Some arcs ->
    Alcotest.(check int) "three arcs" 3 (List.length arcs);
    let dst = Graph.arc_dst g (List.nth arcs 2) in
    Alcotest.(check int) "ends at 3" 3 dst

let prop_dijkstra_early_exit_consistent =
  QCheck.Test.make ~name:"early-exit dijkstra matches full run" ~count:30
    arbitrary_graph (fun g ->
      let n = Graph.num_nodes g in
      let st1 = Sssp.create_state n in
      let st2 = Sssp.create_state n in
      let target = n - 1 in
      let len = floats_of_fun g (fun _ -> 1.0) in
      Sssp.dijkstra g ~len ~src:0 st1;
      Sssp.dijkstra ~dsts:[| target |] g ~len ~src:0 st2;
      abs_float (Sssp.distance st1 target -. Sssp.distance st2 target) < 1e-9)

(* ---- Permutation ---- *)

let prop_derangement =
  QCheck.Test.make ~name:"derangement has no fixed point" ~count:50
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let p = Permutation.derangement (Rng.make seed) n in
      Permutation.is_permutation p
      && Array.for_all (fun i -> p.(i) <> i) (Array.init n Fun.id))

let prop_derangement_avoiding_groups =
  QCheck.Test.make ~name:"group-avoiding matching avoids groups" ~count:50
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, groups) ->
      (* 3 members per group. *)
      let n = 3 * groups in
      let group i = i / 3 in
      let p = Permutation.derangement_avoiding (Rng.make seed) ~group n in
      Permutation.is_permutation p
      && Array.for_all (fun i -> group i <> group p.(i)) (Array.init n Fun.id))

let test_inverse () =
  let p = [| 2; 0; 1 |] in
  Alcotest.(check (array int)) "inverse" [| 1; 2; 0 |] (Permutation.inverse p)

(* ---- Hungarian ---- *)

let brute_force_max weight =
  let n = Array.length weight in
  let best = ref neg_infinity in
  let rec go assigned cols total =
    if assigned = n then best := max !best total
    else
      for c = 0 to n - 1 do
        if not (List.mem c cols) then
          go (assigned + 1) (c :: cols) (total +. weight.(assigned).(c))
      done
  in
  go 0 [] 0.0;
  !best

let prop_hungarian_optimal =
  QCheck.Test.make ~name:"hungarian = brute force (n<=5)" ~count:60
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, n) ->
      let rng = Rng.make seed in
      let w = Array.init n (fun _ -> Array.init n (fun _ -> Rng.float rng 10.0)) in
      let assign = Hungarian.maximize w in
      abs_float (Hungarian.total_weight w assign -. brute_force_max w) < 1e-6)

let test_hungarian_known () =
  let w = [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  let assign = Hungarian.maximize w in
  check_float "max weight" 4.0 (Hungarian.total_weight w assign)

(* ---- K shortest paths ---- *)

let hops = Kshortest.k_shortest ~len:(fun _ -> 1.0)

let test_kshortest_square () =
  let g = Graph.of_unit_edges ~n:4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  let paths = hops g ~src:0 ~dst:3 ~k:3 in
  Alcotest.(check int) "two simple paths" 2 (List.length paths);
  List.iter
    (fun p -> check_float "both length 2" 2.0 p.Kshortest.length)
    paths;
  (* Equal lengths tie-break on the node sequence. *)
  Alcotest.(check (list (list int))) "tie order" [ [ 0; 1; 3 ]; [ 0; 2; 3 ] ]
    (List.map (fun p -> p.Kshortest.nodes) paths)

let test_kshortest_ladder () =
  (* Path graph has exactly one simple path. *)
  let g = Graph.of_unit_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let paths = hops g ~src:0 ~dst:3 ~k:5 in
  Alcotest.(check int) "single path" 1 (List.length paths)

let prop_kshortest_sorted_distinct =
  QCheck.Test.make ~name:"k-shortest sorted, distinct, valid" ~count:20
    arbitrary_graph (fun g ->
      let n = Graph.num_nodes g in
      let paths = hops g ~src:0 ~dst:(n - 1) ~k:4 in
      let lengths = List.map (fun p -> p.Kshortest.length) paths in
      let arcs = List.map (fun p -> p.Kshortest.arcs) paths in
      lengths = List.sort compare lengths
      && List.length (List.sort_uniq compare arcs) = List.length arcs
      && List.for_all
           (fun p ->
             (* Valid contiguous path from src to dst. *)
             let rec walk v = function
               | [] -> v = n - 1
               | a :: rest -> Graph.arc_src g a = v && walk (Graph.arc_dst g a) rest
             in
             walk 0 p.Kshortest.arcs)
           paths)

(* ---- Spectral ---- *)

let test_lambda2_complete_graph () =
  (* Normalized Laplacian of K_n has lambda_2 = n/(n-1). *)
  let n = 6 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  let g = Graph.of_unit_edges ~n !edges in
  let x = Spectral.second_eigenvector g in
  check_float "K6 lambda2" (6.0 /. 5.0) (Spectral.rayleigh_quotient g x)

let test_lambda2_cycle () =
  (* Normalized Laplacian of C_n has lambda_2 = 1 - cos(2 pi / n). *)
  let n = 12 in
  let g = Graph.of_unit_edges ~n (List.init n (fun i -> (i, (i + 1) mod n))) in
  let x = Spectral.second_eigenvector g in
  let expect = 1.0 -. cos (2.0 *. Float.pi /. float_of_int n) in
  Alcotest.(check (float 1e-3)) "C12 lambda2" expect
    (Spectral.rayleigh_quotient g x)

let test_sweep_order_is_permutation () =
  let g = random_graph (Rng.make 3) ~n:20 ~extra:10 in
  let order = Spectral.sweep_order g in
  Alcotest.(check bool) "permutation" true (Permutation.is_permutation order)

(* ---- Equipment ---- *)

let prop_same_equipment_preserves_degrees =
  QCheck.Test.make ~name:"same-equipment random preserves degrees" ~count:25
    arbitrary_graph (fun g ->
      let rng = Rng.make 17 in
      let r = Equipment.same_equipment_random rng g in
      Graph.degree_sequence r = Graph.degree_sequence g
      && Traversal.is_connected r)

let test_random_regular () =
  let rng = Rng.make 5 in
  let g = Equipment.random_regular rng ~n:20 ~degree:4 in
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Array.iter (fun d -> Alcotest.(check int) "regular" 4 d) (Graph.degree_sequence g)

let test_random_regular_infeasible () =
  let rng = Rng.make 5 in
  Alcotest.(check bool) "odd sum rejected" true
    (try
       ignore (Equipment.random_regular rng ~n:5 ~degree:3);
       false
     with Equipment.Infeasible _ -> true)

(* ---- Metrics ---- *)

let test_metrics_complete_graph () =
  let n = 6 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  let g = Graph.of_unit_edges ~n !edges in
  let m = Tb_graph.Metrics.summarize g in
  Alcotest.(check int) "diameter" 1 m.Tb_graph.Metrics.diameter;
  Alcotest.(check (float 1e-9)) "clustering" 1.0
    m.Tb_graph.Metrics.global_clustering;
  Alcotest.(check (float 1e-3)) "lambda2 = n/(n-1)" (6.0 /. 5.0)
    m.Tb_graph.Metrics.algebraic_connectivity

let test_metrics_tree_no_triangles () =
  let g = Graph.of_unit_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  Alcotest.(check (float 1e-9)) "star clustering" 0.0
    (Tb_graph.Metrics.global_clustering g)

let test_metrics_degree_stats () =
  let g = Graph.of_unit_edges ~n:4 [ (0, 1); (1, 2); (1, 3) ] in
  let m = Tb_graph.Metrics.summarize g in
  Alcotest.(check int) "min" 1 m.Tb_graph.Metrics.min_degree;
  Alcotest.(check int) "max" 3 m.Tb_graph.Metrics.max_degree;
  Alcotest.(check (float 1e-9)) "mean" 1.5 m.Tb_graph.Metrics.mean_degree

let () =
  Alcotest.run "graph"
    [
      ( "construction",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "arc conventions" `Quick test_graph_arc_conventions;
          Alcotest.test_case "rejects self loop" `Quick test_graph_rejects_self_loop;
          Alcotest.test_case "rejects parallel" `Quick test_graph_rejects_parallel;
          Alcotest.test_case "rejects non-finite capacity" `Quick
            test_graph_rejects_non_finite;
          Alcotest.test_case "rejects out of range" `Quick
            test_graph_rejects_out_of_range;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs path" `Quick test_bfs_path_graph;
          Alcotest.test_case "bfs disconnected" `Quick test_bfs_disconnected;
          Alcotest.test_case "cycle diameter" `Quick test_diameter_cycle;
          Alcotest.test_case "K3 mean distance" `Quick test_mean_distance_k3;
          Alcotest.test_case "components" `Quick test_components;
          Qseed.to_alcotest prop_apsp_symmetric;
        ] );
      ( "csr",
        [
          Alcotest.test_case "all topology families" `Quick test_csr_all_families;
          Alcotest.test_case "succ = iter_succ" `Quick test_csr_succ_view;
          Alcotest.test_case "arc slot inverts catalog CSR" `Quick test_arc_slot_catalog;
          Qseed.to_alcotest prop_arc_slot_builder;
        ] );
      ( "dijkstra",
        [
          Qseed.to_alcotest prop_dijkstra_matches_bellman_ford;
          Qseed.to_alcotest prop_dijkstra_matches_bfs_on_unit;
          Qseed.to_alcotest prop_dijkstra_early_exit_consistent;
          Alcotest.test_case "weighted" `Quick test_dijkstra_weighted;
          Alcotest.test_case "path arcs" `Quick test_dijkstra_path_arcs;
        ] );
      ( "permutation",
        [
          Qseed.to_alcotest prop_derangement;
          Qseed.to_alcotest prop_derangement_avoiding_groups;
          Alcotest.test_case "inverse" `Quick test_inverse;
        ] );
      ( "hungarian",
        [
          Qseed.to_alcotest prop_hungarian_optimal;
          Alcotest.test_case "known 2x2" `Quick test_hungarian_known;
        ] );
      ( "k-shortest",
        [
          Alcotest.test_case "square" `Quick test_kshortest_square;
          Alcotest.test_case "single path" `Quick test_kshortest_ladder;
          Qseed.to_alcotest prop_kshortest_sorted_distinct;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "K6 lambda2" `Quick test_lambda2_complete_graph;
          Alcotest.test_case "C12 lambda2" `Quick test_lambda2_cycle;
          Alcotest.test_case "sweep order" `Quick test_sweep_order_is_permutation;
        ] );
      ( "equipment",
        [
          Qseed.to_alcotest prop_same_equipment_preserves_degrees;
          Alcotest.test_case "random regular" `Quick test_random_regular;
          Alcotest.test_case "infeasible rejected" `Quick
            test_random_regular_infeasible;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "complete graph" `Quick test_metrics_complete_graph;
          Alcotest.test_case "star clustering" `Quick
            test_metrics_tree_no_triangles;
          Alcotest.test_case "degree stats" `Quick test_metrics_degree_stats;
        ] );
    ]
