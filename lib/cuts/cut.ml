module Graph = Tb_graph.Graph

(* Cuts and their sparsity.

   A cut is a node subset S (bool per node). Its sparsity under a TM is
   the valid throughput upper bound it induces: undirected capacity
   across the cut divided by the larger directional demand across it
   (both directions must fit through the same undirected capacity, one
   per arc direction, so the max is the binding one):

       sparsity(S) = cap(S) / max(dem(S -> ~S), dem(~S -> S)).

   With the uniform all-to-all TM this reduces (up to the paper's
   normalization) to the classic uniform sparsest cut. *)

type t = bool array

let of_list ~n nodes =
  let s = Array.make n false in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Cut.of_list";
      s.(v) <- true)
    nodes;
  s

let size cut = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 cut

let is_proper cut =
  let k = size cut in
  k > 0 && k < Array.length cut

(* Indexes the edge columns in edge-id order: no record or boxed float
   per edge, and the same sum as a fold over [Graph.edges]. *)
let capacity g cut =
  let eu = Graph.ba_edge_u g and ev = Graph.ba_edge_v g in
  let ecap = Graph.ba_edge_cap g in
  let s = ref 0.0 in
  for e = 0 to Graph.num_edges g - 1 do
    if cut.(eu.{e}) <> cut.(ev.{e}) then s := !s +. ecap.{e}
  done;
  !s

(* (demand S->~S, demand ~S->S) for a flow list. *)
let demand_across flows cut =
  Array.fold_left
    (fun (fwd, bwd) (u, v, w) ->
      if cut.(u) && not cut.(v) then (fwd +. w, bwd)
      else if cut.(v) && not cut.(u) then (fwd, bwd +. w)
      else (fwd, bwd))
    (0.0, 0.0) flows

let sparsity g flows cut =
  if not (is_proper cut) then invalid_arg "Cut.sparsity: improper cut";
  let fwd, bwd = demand_across flows cut in
  let dem = max fwd bwd in
  if dem <= 0.0 then infinity else capacity g cut /. dem

(* Sparsity under the TM type. *)
let sparsity_tm g tm cut = sparsity g (Tb_tm.Tm.flows tm) cut

let complement cut = Array.map not cut
