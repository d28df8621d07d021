module Graph = Tb_graph.Graph
module Commodity = Tb_flow.Commodity
module Fleischer = Tb_flow.Fleischer
module Colgen = Tb_flow.Colgen
module Cert = Tb_cert.Cert
module Warm = Tb_harness.Warm
module Solve = Tb_harness.Solve
module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm

(* The warm_vs_cold diff-fuzz subject: solve an instance cold, perturb
   it the way a sweep's neighboring cell would (delete one edge, or
   scale one demand), then solve the perturbed instance warm-started
   from the cold dual certificate — transported through {!Tb_harness.Warm}
   exactly as the sweep drivers do — and check that the warm bracket is
   certificate-green and agrees with an independent cold solve of the
   same perturbed instance. Warm and cold brackets are generally
   different (different trajectories), but both bracket the same
   optimum, so they must intersect; and when the exact optimum is
   affordable, the warm bracket must respect the same (1-eps)^3
   Garg-Koenemann floor a cold one does. Finally, Colgen's warm path
   seeding must leave its exact value unchanged. *)

let fleischer_tol = 0.03
let colgen_commodity_cap = 100

(* Delete the [i]-th undirected edge of [g]. *)
let delete_edge g i =
  let n = Graph.num_nodes g in
  let edges = Graph.edges g in
  let keep = ref [] in
  Array.iteri
    (fun j (e : Graph.edge) ->
      if j <> i then keep := (e.Graph.u, e.Graph.v, e.Graph.cap) :: !keep)
    edges;
  Graph.of_edges ~n !keep

(* The perturbed instance: (graph, commodities, description). Edge
   deletion retries deterministically until every commodity stays
   routable (a cold probe solve tells us), falling back to demand
   scaling when the instance has no deletable edge — mirroring the
   connected-failure sampling of the sweeps. *)
let perturb ~seed ~index g cs =
  let scale_demand () =
    let j = abs (seed + index) mod Array.length cs in
    let cs2 =
      Array.mapi
        (fun i (c : Commodity.t) ->
          if i = j then { c with Commodity.demand = c.Commodity.demand *. 2.0 }
          else c)
        cs
    in
    (g, cs2, Printf.sprintf "demand[%d]*2" j)
  in
  if index mod 2 = 1 then scale_demand ()
  else begin
    let num_edges = Graph.num_edges g in
    let rec try_edge attempt =
      if attempt >= num_edges then scale_demand ()
      else begin
        let i = (abs seed + attempt) mod num_edges in
        let g2 = delete_edge g i in
        match Fleischer.solve ~tol:0.5 ~max_phases:1 g2 cs with
        | _ -> (g2, cs, Printf.sprintf "edge[%d] deleted" i)
        | exception Fleischer.Unreachable_commodity _ -> try_edge (attempt + 1)
      end
    in
    try_edge 0
  end

let check_instance t ~index (inst : Gen.instance) =
  try
    let g = inst.Gen.topo.Topology.graph in
    let cs = Tm.commodities inst.Gen.tm in
    (* Cold solve of the base instance: its dual lengths are the warm
       state a sweep would carry to the next cell. *)
    let base = Fleischer.solve ~tol:fleischer_tol g cs in
    let entry = Warm.entry_of_lengths g base.Fleischer.lengths in
    let g2, cs2, what = perturb ~seed:inst.Gen.seed ~index g cs in
    let cold = Fleischer.solve ~tol:fleischer_tol g2 cs2 in
    let warm_lengths = Warm.lengths_for entry g2 in
    Diff.record t ~inst ~cert:"warm_transport"
      (match warm_lengths with
      | Some _ -> Ok ()
      | None ->
        Error
          (Printf.sprintf "warm lengths failed to transport after %s" what));
    (match warm_lengths with
    | None -> ()
    | Some w ->
      let wr = Fleischer.solve ~tol:fleischer_tol ~warm_lengths:w g2 cs2 in
      (* The warm bracket must be green under every certificate a cold
         one is held to... *)
      Diff.record t ~inst ~cert:"warm_primal"
        (Cert.primal_feasible g2 cs2 ~throughput:wr.Fleischer.lower
           ~flow:wr.Fleischer.flow);
      Diff.record t ~inst ~cert:"warm_dual"
        (Cert.dual_bound_valid g2 cs2 ~lengths:wr.Fleischer.lengths
           ~upper:wr.Fleischer.upper);
      Diff.record t ~inst ~cert:"warm_bounds"
        (Cert.bounds_ordered ~lower:wr.Fleischer.lower
           ~value:(Fleischer.value wr) ~upper:wr.Fleischer.upper ());
      (* ... and agree with the independent cold bracket: both bracket
         the same optimum, so they must intersect. *)
      Diff.record t ~inst ~cert:"warm_agreement"
        (Cert.agreement
           [
             ("cold", cold.Fleischer.lower, cold.Fleischer.upper);
             ("warm", wr.Fleischer.lower, wr.Fleischer.upper);
           ]);
      (* Against ground truth, the warm solve keeps the same
         (1-eps)^3 Garg-Koenemann floor as a cold one. *)
      if Array.length cs2 <= colgen_commodity_cap then begin
        let cg = Colgen.solve g2 cs2 in
        Diff.record t ~inst ~cert:"warm_fptas_gap"
          (Cert.fptas_gap ~eps:Fleischer.default_eps ~exact:cg.Colgen.value wr);
        (* Colgen warm path seeding — transported through the Warm
           entry's node-sequence form, paths through deleted arcs
           dropped — must not move the exact optimum. *)
        let node_paths =
          Array.to_list
            (Array.mapi
               (fun j (c : Commodity.t) ->
                 ( (c.Commodity.src, c.Commodity.dst),
                   List.map
                     (fun (p, _) ->
                       Warm.nodes_of_arc_path g2 ~src:c.Commodity.src p)
                     cg.Colgen.paths.(j) ))
               (Commodity.normalize cs2))
        in
        let pentry = { entry with Warm.paths = node_paths } in
        let warm_paths = Warm.paths_for pentry g2 in
        let cg2 = Colgen.solve ~warm_paths g2 cs2 in
        let rtol = 1e-6 in
        Diff.record t ~inst ~cert:"warm_colgen_equiv"
          (if
             Float.abs (cg2.Colgen.value -. cg.Colgen.value)
             <= (rtol *. Float.abs cg.Colgen.value) +. 1e-9
           then Ok ()
           else
             Error
               (Printf.sprintf "seeded colgen %.12g <> cold colgen %.12g"
                  cg2.Colgen.value cg.Colgen.value))
      end;
      (* The harness path: the certificate-guarded pre-attempt must
         accept this warm start (no "warm start rejected" attempt). *)
      let policy = Solve.policy_of ~tol:fleischer_tol (Some Solve.Fptas) in
      let o = Solve.solve ~policy ~warm_lengths:w g2 cs2 in
      Diff.record t ~inst ~cert:"warm_harness_accept"
        (match
           List.find_opt
             (fun (a : Solve.attempt) ->
               String.length a.Solve.error >= 19
               && String.sub a.Solve.error 0 19 = "warm start rejected")
             o.Solve.attempts
         with
        | None -> Ok ()
        | Some a -> Error a.Solve.error));
    Diff.record t ~inst ~cert:"no_crash" (Ok ())
  with exn ->
    Diff.record t ~inst ~cert:"no_crash"
      (Error (Printf.sprintf "uncaught exception: %s" (Printexc.to_string exn)))
