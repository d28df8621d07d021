(* fattree-sparse: Fleischer at tol 0.3 on fattree:32, whose 32,768 arcs
   put every shortest-path tree on the delta-stepping path, so SSSP and
   its allocation dominate. Each op is one solve of 8 unit commodities
   between edge switches of 16 distinct pods, paired by a seeded pod
   permutation. Every such demand set is the same instance up to a
   symmetry of the fat tree, so ops differ in their inputs but not in
   their difficulty: a random pair set instead makes one solve take
   anywhere from 240 to 610 phases. A cycle is a single op. *)

module W = Workload
module Graph = Tb_graph.Graph
module Rng = Tb_prelude.Rng
module Commodity = Tb_flow.Commodity
module Fleischer = Tb_flow.Fleischer
module Cert = Tb_cert.Cert
module Spans = Benchkit.Spans

let spec = "fattree:32"
let demand_sets = 48
let pairs = 8
let tol = 0.3

(* Edge switches grouped into pods, recovered from the wiring alone: two
   edge switches share a pod iff they share their lowest-numbered
   aggregation neighbour. *)
let pods topo =
  let g = topo.Tb_topo.Topology.graph in
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      let key = ref max_int in
      Graph.iter_succ (fun u _ -> if u < !key then key := u) g v;
      Hashtbl.replace tbl !key
        (v :: Option.value ~default:[] (Hashtbl.find_opt tbl !key)))
    (Tb_topo.Topology.endpoint_nodes topo);
  Hashtbl.fold (fun k vs acc -> (k, Array.of_list (List.rev vs)) :: acc) tbl []
  |> List.sort compare |> List.map snd |> Array.of_list

let demand_set ~seed pods j =
  let rng = Rng.split (Rng.make seed) j in
  let order = Rng.shuffle rng (Array.init (Array.length pods) Fun.id) in
  Array.init pairs (fun i ->
      let pick pod = Rng.choose rng pods.(pod) in
      let src = pick order.(2 * i) in
      let dst = pick order.((2 * i) + 1) in
      Commodity.make ~src ~dst ~demand:1.0)

let solve_op g cs : W.op =
 fun spans ->
  let r = Spans.record spans "fleischer.solve" (fun () -> Fleischer.solve ~tol g cs) in
  let lower = r.Fleischer.lower and upper = r.Fleischer.upper in
  let verify () =
    [
      ( "primal_feasible",
        Cert.primal_feasible g cs ~throughput:lower ~flow:r.Fleischer.flow );
      ( "dual_bound_valid",
        Cert.dual_bound_valid g cs ~lengths:r.Fleischer.lengths ~upper );
      W.ordered ~lower ~upper;
    ]
  in
  let replay () =
    {
      W.graph = g;
      sources = W.sources_of_commodities cs;
      lengths = Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout r.Fleischer.lengths;
    }
  in
  let key =
    W.digest
      (spec :: W.float_key tol
      :: Array.to_list
           (Array.map (fun c -> Printf.sprintf "%d>%d" c.Commodity.src c.Commodity.dst) cs))
  in
  {
    W.outcome = { key; lower; upper; solved = true; rung = ""; error = None };
    verify;
    replay = Some replay;
  }

let setup ~spans ~seed ~tmp:_ =
  let topo =
    match Tb_topo.Catalog.spec_of_string spec with
    | Ok sp -> W.build_topo spans (fun () -> Tb_topo.Catalog.build_spec sp)
    | Error e -> failwith e
  in
  let g = topo.Tb_topo.Topology.graph in
  let pods = pods topo in
  Array.init demand_sets (fun j ->
      let op = solve_op g (demand_set ~seed pods j) in
      fun () -> ([| op |], W.no_cleanup))

(* About 30 ops fit a run: too few for any tail above the median to
   have ten samples beyond it. *)
let workload = { W.name = "fattree-sparse"; tail_q = 0.5; setup }
