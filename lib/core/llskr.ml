module Graph = Tb_graph.Graph
module Sssp = Tb_graph.Sssp
module Topology = Tb_topo.Topology
module Restricted = Tb_flow.Restricted
module Commodity = Tb_flow.Commodity

(* Replication of the Yuan et al. [48] methodology (Fig. 15).

   LLSKR splits each server-to-server flow into K subflows pinned to K
   distinct (near-)shortest switch-level paths spread across the
   sender's uplinks. Yuan et al. then *estimate* each subflow's
   throughput as the inverse of the maximum number of subflows sharing a
   link along its path, and average over flows. The paper re-evaluates
   the same path sets with an exact LP and shows the counting estimate
   understates expanders (Jellyfish) relative to fat trees.

   Path choice: K rounds of shortest path with a multiplicative penalty
   on already-used arcs — the standard "diverse shortest paths" trick,
   which reproduces LLSKR's property of spreading subflows over distinct
   uplinks (plain Yen can return paths stacked on one uplink). *)

(* [diverse_paths] on caller-owned scratch: an SSSP state and a length
   array for [g] in CSR slot order, which this refills. *)
let diverse_paths_on st penalty g ~src ~dst ~k =
  if k < 1 then invalid_arg "Llskr.diverse_paths: k < 1";
  Bigarray.Array1.fill penalty 1.0;
  let dsts = Some [| dst |] in
  let slot = Graph.ba_arc_slot g in
  let paths = ref [] in
  for _ = 1 to k do
    Sssp.dijkstra ?dsts g ~len:penalty ~src st;
    match Sssp.path_arcs g st dst with
    | None -> ()
    | Some arcs ->
      paths := arcs :: !paths;
      List.iter (fun a -> let i = slot.{a} in penalty.{i} <- penalty.{i} *. 4.0) arcs
  done;
  match List.rev !paths with
  | [] -> invalid_arg "Llskr.diverse_paths: disconnected pair"
  | ps -> Array.of_list ps

let scratch g = (Sssp.create_state (Graph.num_nodes g), Graph.make_floats (Graph.num_arcs g))

let diverse_paths g ~src ~dst ~k =
  let st, penalty = scratch g in
  diverse_paths_on st penalty g ~src ~dst ~k

(* Path sets memoized per unordered pair: [diverse_paths] runs once,
   from the smaller endpoint to the larger, and the other orientation
   gets the arc-reversals, halving the path computations. Every pair's
   search runs on one scratch state and length array. *)
let path_sets g ~k =
  let st, penalty = scratch g in
  let cache = Hashtbl.create 64 in
  fun u v ->
    let lo = min u v and hi = max u v in
    let fwd =
      match Hashtbl.find_opt cache (lo, hi) with
      | Some p -> p
      | None ->
        let p = diverse_paths_on st penalty g ~src:lo ~dst:hi ~k in
        Hashtbl.add cache (lo, hi) p;
        p
    in
    if u = lo then fwd else Array.map (fun arcs -> List.rev_map Graph.arc_rev arcs) fwd

(* All ordered endpoint pairs, both orientations of each unordered
   pair adjacent, last endpoint pair first. This order is the LP's
   commodity order and the counting sums' order, so the estimates'
   last bits depend on it. *)
let a2a_pairs (topo : Topology.t) =
  let endpoints = Topology.endpoint_nodes topo in
  let ne = Array.length endpoints in
  let out = ref [] in
  for i = 0 to ne - 1 do
    for j = i + 1 to ne - 1 do
      let u = endpoints.(i) and v = endpoints.(j) in
      out := (u, v) :: (v, u) :: !out
    done
  done;
  !out

(* Yuan-style counting estimate under all-to-all traffic: each ToR pair
   (u, v) contributes s_u * s_v subflows to each of its K paths; a
   subflow's rate is 1 / (max subflow count on its path); a flow's rate
   is the sum of its subflows' rates; "absolute throughput" rescales the
   mean flow rate by N (the A2A per-flow demand is 1/N). *)
let counting_estimate (topo : Topology.t) ~k_paths =
  let g = topo.Topology.graph in
  let hosts = topo.Topology.hosts in
  let total_servers = float_of_int (Topology.num_servers topo) in
  let paths = path_sets g ~k:k_paths in
  let pairs = a2a_pairs topo in
  let count = Array.make (Graph.num_arcs g) 0.0 in
  List.iter
    (fun (u, v) ->
      let subflows = float_of_int (hosts.(u) * hosts.(v)) in
      Array.iter
        (fun arcs -> List.iter (fun a -> count.(a) <- count.(a) +. subflows) arcs)
        (paths u v))
    pairs;
  let flow_rate_sum = ref 0.0 and flow_weight = ref 0.0 in
  List.iter
    (fun (u, v) ->
      let rate =
        Array.fold_left
          (fun acc arcs ->
            let worst =
              List.fold_left (fun w a -> max w count.(a)) 0.0 arcs
            in
            if worst > 0.0 then acc +. (1.0 /. worst) else acc)
          0.0 (paths u v)
      in
      let weight = float_of_int (hosts.(u) * hosts.(v)) in
      (* [rate] is per server-flow of this pair. *)
      flow_rate_sum := !flow_rate_sum +. (rate *. weight);
      flow_weight := !flow_weight +. weight)
    pairs;
  let mean_rate = !flow_rate_sum /. !flow_weight in
  mean_rate *. total_servers

(* Exact (bracketed) concurrent throughput restricted to the same LLSKR
   path sets, under the same A2A TM — the paper's "Comparison 2/3"
   method. Maximizes the *minimum* flow, per Section II-A. *)
let lp_estimate ?(tol = 0.03) (topo : Topology.t) ~k_paths =
  let g = topo.Topology.graph in
  let hosts = topo.Topology.hosts in
  let total_servers = float_of_int (Topology.num_servers topo) in
  let cs =
    Array.of_list
      (List.map
         (fun (u, v) ->
           Commodity.make ~src:u ~dst:v
             ~demand:(float_of_int (hosts.(u) * hosts.(v)) /. total_servers))
         (a2a_pairs topo))
  in
  let r = Restricted.solve ~tol g ~paths:(path_sets g ~k:k_paths) cs in
  0.5 *. (r.Restricted.lower +. r.Restricted.upper)
