module Graph = Tb_graph.Graph

(* Three-level k-ary fat tree [Al-Fares et al., SIGCOMM'08]:
   k pods; per pod k/2 edge and k/2 aggregation switches; (k/2)^2 core
   switches; k/2 servers per edge switch. k^3/4 servers total, all links
   unit capacity. Nonblocking by construction. *)

(* Built through [Graph.Builder] straight into Bigarray columns — a
   full-bandwidth k=284 instance (100,820 switches, 11.4M edges) never
   materializes a list or boxed records. [~reverse:true] keeps the edge
   order bit-identical to the original prepend-then-[of_unit_edges]
   construction, which the golden LP vectors depend on. Structural
   uniqueness (the dedup [of_edges] would do) holds by construction:
   every (edge, agg) pair and every (agg, core) pair is emitted once. *)
let graph ~k =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Fattree.graph: k must be even";
  let half = k / 2 in
  let num_edge = k * half in
  let num_agg = k * half in
  let num_core = half * half in
  let n = num_edge + num_agg + num_core in
  let edge_sw pod e = (pod * half) + e in
  let agg_sw pod a = num_edge + (pod * half) + a in
  let core_sw a j = num_edge + num_agg + (a * half) + j in
  let b = Graph.Builder.create ~capacity:(k * k * k / 2) ~n () in
  for pod = 0 to k - 1 do
    for e = 0 to half - 1 do
      for a = 0 to half - 1 do
        Graph.Builder.add_unit b (edge_sw pod e) (agg_sw pod a)
      done
    done;
    (* Aggregation switch a of every pod talks to core group a. *)
    for a = 0 to half - 1 do
      for j = 0 to half - 1 do
        Graph.Builder.add_unit b (agg_sw pod a) (core_sw a j)
      done
    done
  done;
  Graph.Builder.finish ~reverse:true b

let make ~k () =
  let g = graph ~k in
  let half = k / 2 in
  let num_edge = k * half in
  let hosts =
    Array.init (Graph.num_nodes g) (fun v -> if v < num_edge then half else 0)
  in
  Topology.make ~name:"FatTree" ~params:(Printf.sprintf "k=%d" k)
    ~kind:Topology.Switch_centric ~graph:g ~hosts

(* Index helpers exposed for the LLSKR replication. *)
let num_edge_switches ~k = k * k / 2
