module Graph = Tb_graph.Graph
(* Dinic's max-flow on the directed arc expansion of an undirected graph
   (each undirected edge gives one arc per direction, each with the edge
   capacity). Used to validate cuts and for single-flow sanity checks.

   Residual structure: for arc [a], flow pushed on [a] creates residual
   capacity on the reverse arc [Graph.arc_rev a]; since both directions
   exist as real arcs, the residual capacity of arc [a] is
   [cap a - flow a + flow (rev a)]. We store net flow per arc.

   All level/blocking-flow loops index the graph's CSR Bigarrays and
   per-arc capacity column directly. *)

type result = { value : float; flow : float array (* per arc *) }

let eps = 1e-12

let solve g ~src ~dst =
  if src = dst then invalid_arg "Maxflow.solve: src = dst";
  let num_arcs = Graph.num_arcs g in
  let adj_start = Graph.ba_adj_start g
  and adj_node = Graph.ba_adj_node g
  and adj_arc = Graph.ba_adj_arc g
  and cap = Graph.ba_arc_caps g in
  let flow = Array.make num_arcs 0.0 in
  let residual a = cap.{a} -. flow.(a) +. flow.(Graph.arc_rev a) in
  let n = Graph.num_nodes g in
  let level = Array.make n (-1) in
  let build_levels () =
    Array.fill level 0 n (-1);
    let q = Queue.create () in
    level.(src) <- 0;
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      for i = adj_start.{u} to adj_start.{u + 1} - 1 do
        let v = adj_node.{i} in
        if level.(v) < 0 && residual adj_arc.{i} > eps then begin
          level.(v) <- level.(u) + 1;
          Queue.add v q
        end
      done
    done;
    level.(dst) >= 0
  in
  (* Push flow on arc [a], cancelling reverse flow first. *)
  let push a f =
    let r = Graph.arc_rev a in
    let cancel = min f flow.(r) in
    flow.(r) <- flow.(r) -. cancel;
    flow.(a) <- flow.(a) +. (f -. cancel)
  in
  (* DFS blocking flow with per-node next-arc iterators (CSR positions). *)
  let iter = Array.make n 0 in
  let rec dfs u pushed =
    if u = dst then pushed
    else begin
      let hi = adj_start.{u + 1} in
      let rec advance () =
        if iter.(u) >= hi then 0.0
        else begin
          let i = iter.(u) in
          let v = adj_node.{i} and a = adj_arc.{i} in
          let r = residual a in
          if level.(v) = level.(u) + 1 && r > eps then begin
            let got = dfs v (min pushed r) in
            if got > eps then begin
              push a got;
              got
            end
            else begin
              iter.(u) <- i + 1;
              advance ()
            end
          end
          else begin
            iter.(u) <- i + 1;
            advance ()
          end
        end
      in
      advance ()
    end
  in
  let total = ref 0.0 in
  while build_levels () do
    for u = 0 to n - 1 do
      iter.(u) <- adj_start.{u}
    done;
    let continue = ref true in
    while !continue do
      let f = dfs src infinity in
      if f > eps then total := !total +. f else continue := false
    done
  done;
  { value = !total; flow }

(* Min s-t cut value equals max flow; also return the source side. *)
let min_cut g ~src ~dst =
  let { value; flow } = solve g ~src ~dst in
  let residual a = Graph.arc_cap g a -. flow.(a) +. flow.(Graph.arc_rev a) in
  let n = Graph.num_nodes g in
  let side = Array.make n false in
  let q = Queue.create () in
  side.(src) <- true;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Graph.iter_succ
      (fun v a ->
        if (not side.(v)) && residual a > eps then begin
          side.(v) <- true;
          Queue.add v q
        end)
      g u
  done;
  (value, side)
