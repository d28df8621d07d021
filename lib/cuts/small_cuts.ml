module Graph = Tb_graph.Graph

(* One- and two-node cuts (Appendix C): networks that are dense in the
   core and sparse at the edge often bottleneck right at the fringe,
   which these O(n) and O(n^2) families catch. *)

let iter_one_node g f =
  let n = Graph.num_nodes g in
  let cut = Array.make n false in
  for v = 0 to n - 1 do
    cut.(v) <- true;
    f cut;
    cut.(v) <- false
  done

let iter_two_node g f =
  let n = Graph.num_nodes g in
  let cut = Array.make n false in
  for u = 0 to n - 1 do
    cut.(u) <- true;
    for v = u + 1 to n - 1 do
      cut.(v) <- true;
      f cut;
      cut.(v) <- false
    done;
    cut.(u) <- false
  done

(* A k-node cut is proper iff the graph has more than k nodes. *)
let best ~size iter_fn p =
  let g = Cut.graph p in
  if Graph.num_nodes g > size then Cut.sparsest p (iter_fn g)
  else (infinity, None)

let sparsest_one_node p = best ~size:1 iter_one_node p
let sparsest_two_node p = best ~size:2 iter_two_node p
