module Graph = Tb_graph.Graph
module A1 = Bigarray.Array1

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

(* (demand S->~S, demand ~S->S) for a flow list: one index loop over
   the flows with float refs, which the compiler keeps unboxed, so no
   tuple or boxed float is built per flow. *)
let demand_across flows cut =
  let fwd = ref 0.0 and bwd = ref 0.0 in
  for i = 0 to Array.length flows - 1 do
    let u, v, w = flows.(i) in
    if cut.(u) && not cut.(v) then fwd := !fwd +. w
    else if cut.(v) && not cut.(u) then bwd := !bwd +. w
  done;
  (!fwd, !bwd)

(* The naive evaluation: the oracle that [Tb_cert.Cert.cut_bound_valid]
   recomputes a witness with, independent of the kernel below. *)
let sparsity g flows cut =
  if not (is_proper cut) then invalid_arg "Cut.sparsity: improper cut";
  let fwd, bwd = demand_across flows cut in
  let dem = max fwd bwd in
  if dem <= 0.0 then infinity else capacity g cut /. dem

let complement cut = Array.map not cut

(* The estimators' evaluation kernel. [prepare] lays the flows out once
   per estimator run as flat columns (endpoints in int arrays, weights
   in an unboxed float array); [sparsest] then evaluates each offered
   cut with two index loops, flows and then crossing edges, on unboxed
   accumulators, and keeps the first strict minimum in a preallocated
   witness buffer. Nothing is allocated per cut.

   Every value is bit-identical to [sparsity]: the same terms are added
   in the same index order ([demand_across]'s flow order, [capacity]'s
   edge-id order), the larger direction is picked as [max] picks it,
   and the capacity is divided by the demand only when [sparsity] would
   divide. Endpoints are checked once here, and each cut's length once
   per cut, so the loops index without bounds checks. *)
type prepared = {
  graph : Graph.t;
  src : int array;
  dst : int array;
  weight : float array;
}

let prepare graph flows =
  let n = Graph.num_nodes graph in
  Array.iter
    (fun (u, v, _) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Cut.prepare")
    flows;
  {
    graph;
    src = Array.map (fun (u, _, _) -> u) flows;
    dst = Array.map (fun (_, v, _) -> v) flows;
    weight = Array.map (fun (_, _, w) -> w) flows;
  }

let graph p = p.graph

let sparsest p enumerate =
  let g = p.graph in
  let n = Graph.num_nodes g and m = Graph.num_edges g in
  let eu = Graph.ba_edge_u g and ev = Graph.ba_edge_v g in
  let ecap = Graph.ba_edge_cap g in
  let src = p.src and dst = p.dst and weight = p.weight in
  (* A one-slot float array holds the running minimum unboxed. *)
  let best = Array.make 1 infinity in
  let witness = Array.make n false and found = ref false in
  enumerate (fun cut ->
      if Array.length cut <> n then invalid_arg "Cut.sparsest";
      let fwd = ref 0.0 and bwd = ref 0.0 in
      for i = 0 to Array.length weight - 1 do
        (* +1: S -> ~S, -1: ~S -> S, 0: does not cross. *)
        let side =
          Bool.to_int (Array.unsafe_get cut (Array.unsafe_get src i))
          - Bool.to_int (Array.unsafe_get cut (Array.unsafe_get dst i))
        in
        if side > 0 then fwd := !fwd +. Array.unsafe_get weight i
        else if side < 0 then bwd := !bwd +. Array.unsafe_get weight i
      done;
      let dem = if !fwd >= !bwd then !fwd else !bwd in
      if not (dem <= 0.0) then begin
        let cap = ref 0.0 in
        for e = 0 to m - 1 do
          if
            Array.unsafe_get cut (A1.unsafe_get eu e)
            <> Array.unsafe_get cut (A1.unsafe_get ev e)
          then cap := !cap +. A1.unsafe_get ecap e
        done;
        let s = !cap /. dem in
        if s < best.(0) then begin
          best.(0) <- s;
          Array.blit cut 0 witness 0 n;
          found := true
        end
      end);
  (best.(0), if !found then Some witness else None)
