(* Descriptive graph metrics used in topology reports: degree statistics,
   clustering, and the spectral expansion proxy. These complement the
   throughput measurements — the paper's Fig. 9 point is precisely that
   such structural metrics (there: path length) do not determine
   throughput. *)

type summary = {
  nodes : int;
  edges : int;
  min_degree : int;
  max_degree : int;
  mean_degree : float;
  diameter : int;
  mean_distance : float;
  global_clustering : float;
  (* lambda_2 of the normalized Laplacian: larger = better expander. *)
  algebraic_connectivity : float;
}

(* Global clustering coefficient: 3 * triangles / open triads. *)
let global_clustering g =
  let n = Graph.num_nodes g in
  let adj_start = Graph.ba_adj_start g and adj_node = Graph.ba_adj_node g in
  let neighbor_sets =
    Array.init n (fun u ->
        let s = Hashtbl.create 8 in
        Graph.iter_succ (fun v _ -> Hashtbl.replace s v ()) g u;
        s)
  in
  let triangles = ref 0 and triads = ref 0 in
  for u = 0 to n - 1 do
    let d = Graph.degree g u in
    triads := !triads + (d * (d - 1) / 2);
    for i = adj_start.{u} to adj_start.{u + 1} - 1 do
      let v = adj_node.{i} in
      for j = adj_start.{u} to adj_start.{u + 1} - 1 do
        let w = adj_node.{j} in
        if v < w && Hashtbl.mem neighbor_sets.(v) w then incr triangles
      done
    done
  done;
  if !triads = 0 then 0.0 else float_of_int !triangles /. float_of_int !triads

let summarize g =
  let degs = Graph.degree_sequence g in
  let n = Graph.num_nodes g in
  {
    nodes = n;
    edges = Graph.num_edges g;
    min_degree = Array.fold_left min max_int degs;
    max_degree = Array.fold_left max 0 degs;
    mean_degree =
      2.0 *. float_of_int (Graph.num_edges g) /. float_of_int (max 1 n);
    diameter = Traversal.diameter g;
    mean_distance = Traversal.mean_distance g;
    global_clustering = global_clustering g;
    algebraic_connectivity =
      (if n < 2 then 0.0
       else begin
         let x = Spectral.second_eigenvector g in
         Spectral.rayleigh_quotient g x
       end);
  }

let pp ppf s =
  Fmt.pf ppf
    "n=%d m=%d deg=[%d,%d] mean-deg=%.2f diam=%d mean-dist=%.3f clust=%.3f \
     lambda2=%.4f"
    s.nodes s.edges s.min_degree s.max_degree s.mean_degree s.diameter
    s.mean_distance s.global_clustering s.algebraic_connectivity
