(* Unweighted traversals: BFS distances, connectivity, diameter, and
   hop-count all-pairs shortest paths (the input graphs all have unit-hop
   topology structure; capacities only matter to flow code). BFS walks
   the graph's CSR Bigarrays directly — it backs APSP, which the TM
   generators call per node, and reachability checks on 100k-node
   graphs. *)

module A1 = Bigarray.Array1

(* Flat-array BFS ring instead of a Queue.t: no per-node block
   allocation, which matters when the flow solvers reachability-check a
   100k-node graph per distinct source. *)
let bfs_into g src ~dist ~queue =
  let n = Graph.num_nodes g in
  if Array.length dist <> n || Array.length queue <> n then
    invalid_arg "Traversal.bfs_into";
  let row = Graph.ba_adj_start g and nbr = Graph.ba_adj_node g in
  Array.fill dist 0 n (-1);
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = Array.unsafe_get queue !head in
    incr head;
    let du = Array.unsafe_get dist u + 1 in
    let hi = A1.unsafe_get row (u + 1) in
    for i = A1.unsafe_get row u to hi - 1 do
      let v = A1.unsafe_get nbr i in
      if Array.unsafe_get dist v < 0 then begin
        Array.unsafe_set dist v du;
        Array.unsafe_set queue !tail v;
        incr tail
      end
    done
  done;
  !tail

let bfs_dist g src =
  let n = Graph.num_nodes g in
  let dist = Array.make n (-1) and queue = Array.make n 0 in
  ignore (bfs_into g src ~dist ~queue);
  dist

let is_connected g =
  let n = Graph.num_nodes g in
  n = 0
  ||
  let d = bfs_dist g 0 in
  Array.for_all (fun x -> x >= 0) d

(* All-pairs hop distances as an n x n matrix; O(n * m). *)
let apsp g =
  let n = Graph.num_nodes g in
  Array.init n (fun u -> bfs_dist g u)

let diameter g =
  let n = Graph.num_nodes g in
  let d = ref 0 in
  for u = 0 to n - 1 do
    let du = bfs_dist g u in
    Array.iter
      (fun x ->
        if x < 0 then invalid_arg "Traversal.diameter: disconnected";
        if x > !d then d := x)
      du
  done;
  !d

(* Mean hop distance over ordered distinct pairs. *)
let mean_distance g =
  let n = Graph.num_nodes g in
  if n < 2 then 0.0
  else begin
    let total = ref 0 in
    for u = 0 to n - 1 do
      let du = bfs_dist g u in
      Array.iter
        (fun x ->
          if x < 0 then invalid_arg "Traversal.mean_distance: disconnected";
          total := !total + x)
        du
    done;
    float_of_int !total /. float_of_int (n * (n - 1))
  end

(* Connected components as an array mapping node -> component id. *)
let components g =
  let n = Graph.num_nodes g in
  let row = Graph.ba_adj_start g and nbr = Graph.ba_adj_node g in
  let comp = Array.make n (-1) in
  let queue = Array.make (max 1 n) 0 in
  let next = ref 0 in
  for u = 0 to n - 1 do
    if comp.(u) < 0 then begin
      let id = !next in
      incr next;
      comp.(u) <- id;
      queue.(0) <- u;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let x = Array.unsafe_get queue !head in
        incr head;
        let hi = A1.unsafe_get row (x + 1) in
        for i = A1.unsafe_get row x to hi - 1 do
          let v = A1.unsafe_get nbr i in
          if Array.unsafe_get comp v < 0 then begin
            Array.unsafe_set comp v id;
            Array.unsafe_set queue !tail v;
            incr tail
          end
        done
      done
    end
  done;
  (!next, comp)
