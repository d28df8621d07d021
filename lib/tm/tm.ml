module Commodity = Tb_flow.Commodity
module Topology = Tb_topo.Topology

(* Traffic matrices.

   Conceptually a TM assigns a demand T(a, b) to every ordered pair of
   servers, normalized to the hose model (every server sends at most one
   unit and receives at most one unit). Because servers attach to their
   node over infinite-capacity links (switch-centric case) or are
   themselves nodes (server-centric case), only the node-level
   aggregation matters to the flow LP, so we store node-level flows:
   [flow (u, v, w)] requests [w] units from node [u] to node [v].

   The throughput of a topology under a TM is then the maximum [t] such
   that every flow [(u, v, w)] can route [w * t] simultaneously. *)

type t = {
  label : string;
  flows : (int * int * float) array;
}

let make ~label flows =
  let clean =
    Array.of_list
      (List.filter (fun (u, v, w) -> u <> v && w > 0.0) (Array.to_list flows))
  in
  { label; flows = clean }

let label t = t.label
let flows t = t.flows
let num_flows t = Array.length t.flows

let commodities t =
  Array.map (fun (u, v, w) -> Commodity.make ~src:u ~dst:v ~demand:w) t.flows

let total_demand t =
  Array.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 t.flows

(* Scale all demands by a constant. *)
let scale c t =
  {
    t with
    flows = Array.map (fun (u, v, w) -> (u, v, w *. c)) t.flows;
  }

(* Per-node send and receive volumes. *)
let node_volumes ~n t =
  let out = Array.make n 0.0 and inc = Array.make n 0.0 in
  Array.iter
    (fun (u, v, w) ->
      out.(u) <- out.(u) +. w;
      inc.(v) <- inc.(v) +. w)
    t.flows;
  (out, inc)

(* Largest per-server send or receive volume under [topo]'s server
   placement; 1.0 means exactly hose-saturating. *)
let hose_utilization topo t =
  let n = Tb_graph.Graph.num_nodes topo.Topology.graph in
  let out, inc = node_volumes ~n t in
  let worst = ref 0.0 in
  Array.iteri
    (fun v h ->
      if h > 0 then begin
        let cap = float_of_int h in
        worst := max !worst (out.(v) /. cap);
        worst := max !worst (inc.(v) /. cap)
      end
      else if out.(v) > 0.0 || inc.(v) > 0.0 then
        invalid_arg "Tm.hose_utilization: traffic at a hostless node")
    topo.Topology.hosts;
  !worst

(* Rescale so the busiest server sends/receives exactly one unit: the
   canonical hose normalization. Throughput values of hose-normalized
   TMs are comparable to the paper's "absolute throughput". *)
let normalize_hose topo t =
  let u = hose_utilization topo t in
  if u <= 0.0 then t else scale (1.0 /. u) t

(* Apply a node relabeling (e.g. rack placement shuffle). *)
let relabel perm t =
  {
    t with
    flows = Array.map (fun (u, v, w) -> (perm.(u), perm.(v), w)) t.flows;
  }
