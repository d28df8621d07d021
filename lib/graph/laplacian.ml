(* Normalized Laplacian operator L = I - D^{-1/2} A D^{-1/2}, exposed as a
   matrix-vector product so the spectral cut heuristics never materialize
   an n x n matrix. Capacities act as edge weights. Both loops index the
   graph's edge columns in edge-id order, allocating nothing per edge. *)

type t = {
  graph : Graph.t;
  (* Weighted degree of each node. *)
  wdeg : float array;
  inv_sqrt_deg : float array;
}

let create g =
  let n = Graph.num_nodes g in
  let wdeg = Array.make n 0.0 in
  let eu = Graph.ba_edge_u g and ev = Graph.ba_edge_v g in
  let ecap = Graph.ba_edge_cap g in
  for e = 0 to Graph.num_edges g - 1 do
    let u = eu.{e} and v = ev.{e} and c = ecap.{e} in
    wdeg.(u) <- wdeg.(u) +. c;
    wdeg.(v) <- wdeg.(v) +. c
  done;
  let inv_sqrt_deg =
    Array.map (fun d -> if d > 0.0 then 1.0 /. sqrt d else 0.0) wdeg
  in
  { graph = g; wdeg; inv_sqrt_deg }

let weighted_degree t u = t.wdeg.(u)

(* y = L x  with  L = I - D^{-1/2} A D^{-1/2}. *)
let apply t x y =
  let n = Graph.num_nodes t.graph in
  if Array.length x <> n || Array.length y <> n then
    invalid_arg "Laplacian.apply";
  Array.blit x 0 y 0 n;
  let g = t.graph in
  let eu = Graph.ba_edge_u g and ev = Graph.ba_edge_v g in
  let ecap = Graph.ba_edge_cap g in
  for e = 0 to Graph.num_edges g - 1 do
    let u = eu.{e} and v = ev.{e} in
    let w = ecap.{e} *. t.inv_sqrt_deg.(u) *. t.inv_sqrt_deg.(v) in
    y.(u) <- y.(u) -. (w *. x.(v));
    y.(v) <- y.(v) -. (w *. x.(u))
  done

(* The eigenvector of eigenvalue 0: D^{1/2} * 1, normalized. *)
let kernel_vector t =
  let v = Array.map sqrt t.wdeg in
  Tb_prelude.Vec.normalize_in_place v;
  v
