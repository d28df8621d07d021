module Graph = Tb_graph.Graph
(* Path-restricted maximum concurrent flow.

   The same multiplicative-weights state as {!Fleischer} ({!Mwu}), but
   each commodity may only use an explicit set of paths (arc lists).
   This replicates routing-scheme studies: the Fig. 15 comparison
   computes exact LP throughput restricted to LLSKR's path choices. The
   "shortest path oracle" degenerates to a min over the commodity's path
   set, so no Dijkstra is needed and phases are cheap even with
   thousands of commodities; it is also why the dual bound is checked
   every 5 phases rather than Fleischer's 10. *)

type spec = { commodity : Commodity.t; paths : int list array }

type result = { lower : float; upper : float; phases : int }

module Metrics = Tb_obs.Metrics
module Trace = Tb_obs.Trace
module Convergence = Tb_obs.Convergence

let m_solves = Metrics.counter "restricted.solves"
let m_phases = Metrics.counter "restricted.phases"
let t_solve = Metrics.timer "restricted.solve"

let solve ?deadline ?(eps = 0.07) ?(tol = 0.03) ?(max_phases = 50_000)
    ?(on_check = Convergence.tracing "restricted") ?warm_lengths g specs =
  let on_check = Tb_obs.Deadline.guard deadline on_check in
  let specs =
    Array.of_list
      (List.filter
         (fun s ->
           s.commodity.Commodity.demand > 0.0
           && s.commodity.Commodity.src <> s.commodity.Commodity.dst)
         (Array.to_list specs))
  in
  if Array.length specs = 0 then invalid_arg "Restricted.solve: no commodities";
  Array.iter
    (fun s ->
      if Array.length s.paths = 0 then
        invalid_arg "Restricted.solve: commodity with empty path set")
    specs;
  Metrics.incr m_solves;
  Metrics.time t_solve @@ fun () ->
  Trace.span "restricted.solve"
    ~args:[ ("commodities", Tb_obs.Json.Int (Array.length specs)) ]
  @@ fun () ->
  (* Pre-scale demands: route once along first paths. *)
  let load = Graph.make_floats (Graph.num_arcs g) in
  Bigarray.Array1.fill load 0.0;
  Array.iter
    (fun s ->
      List.iter
        (fun a -> load.{a} <- load.{a} +. s.commodity.Commodity.demand)
        s.paths.(0))
    specs;
  let t =
    Mwu.create g ~eps ~load ~warm_lengths
      (Array.map (fun s -> s.commodity) specs)
  in
  (* The phase loop below is allocation-free: paths are flattened to arc
     arrays once, every loop is an index loop over local refs, and the
     shortest length is handed back through an unboxed cell rather than
     a boxed tuple. Sums and minima run in path order: reordering them
     would change the brackets' last bits. *)
  let len = t.Mwu.len in
  let paths = Array.map (fun s -> Array.map Array.of_list s.paths) specs in
  let best_len = [| infinity |] in
  (* Index of commodity [j]'s shortest path (first on ties); its length
     is left in [best_len.(0)]. *)
  let shortest_of j =
    let ps = paths.(j) in
    let best = ref 0 and bl = ref infinity in
    for i = 0 to Array.length ps - 1 do
      let p = ps.(i) in
      let l = ref 0.0 in
      for k = 0 to Array.length p - 1 do
        l := !l +. len.{p.(k)}
      done;
      if !l < !bl then begin
        bl := !l;
        best := i
      end
    done;
    best_len.(0) <- !bl;
    !best
  in
  let alpha () =
    let alpha = ref 0.0 in
    for j = 0 to Array.length specs - 1 do
      ignore (shortest_of j);
      alpha := !alpha +. (t.Mwu.demand.(j) *. best_len.(0))
    done;
    !alpha
  in
  (* The step stays fixed: Fleischer's stall anneal would move these
     brackets (see DESIGN.md, "One MWU state"). *)
  let running = ref true in
  while !running do
    for j = 0 to Array.length specs - 1 do
      t.Mwu.c.remaining <- t.Mwu.demand.(j);
      while t.Mwu.c.remaining > 1e-15 do
        let p = paths.(j).(shortest_of j) in
        Mwu.route t p (Array.length p)
      done
    done;
    Mwu.end_phase t;
    Metrics.incr m_phases;
    if t.Mwu.phases mod 5 = 0 || t.Mwu.phases = 1 then
      Mwu.dual_check t ~alpha:(alpha ()) on_check;
    running := not (Mwu.converged t ~solver:"Restricted" ~tol ~max_phases)
  done;
  Mwu.dual_check t ~alpha:(alpha ()) on_check;
  { lower = Mwu.lower t; upper = Mwu.upper t; phases = t.Mwu.phases }
