module Graph = Tb_graph.Graph
module Traversal = Tb_graph.Traversal

(* Expanding-region cuts (Appendix C): for every origin node, take the
   BFS balls of radius k = 0, 1, ... as cut subsets — at most n * diam
   cuts. Catches clustered networks whose bottleneck separates whole
   regions. *)

let iter g f =
  let n = Graph.num_nodes g in
  let cut = Array.make n false in
  let dist = Array.make n (-1) and order = Array.make n 0 in
  for origin = 0 to n - 1 do
    (* [order] lists the reached nodes by non-decreasing distance, so
       each ball is a prefix of it and the last reached node sits at the
       origin's eccentricity. A ball of radius below that excludes the
       farthest node and includes the origin: it is always proper. *)
    let reached = Traversal.bfs_into g origin ~dist ~queue:order in
    let ecc = dist.(order.(reached - 1)) in
    let k = ref 0 in
    for radius = 0 to ecc - 1 do
      while dist.(order.(!k)) <= radius do
        cut.(order.(!k)) <- true;
        incr k
      done;
      f cut
    done;
    for i = 0 to !k - 1 do
      cut.(order.(i)) <- false
    done
  done

let sparsest p = Cut.sparsest p (iter (Cut.graph p))
