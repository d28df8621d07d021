module Graph = Tb_graph.Graph
(* Path-restricted maximum concurrent flow.

   The same multiplicative-weights state as {!Fleischer} ({!Mwu}), but
   each commodity may only use the paths (arc lists) a path evaluator
   gives it. This replicates routing-scheme studies: the Fig. 15
   comparison computes exact LP throughput restricted to LLSKR's path
   choices. The "shortest path oracle" degenerates to a min over the
   commodity's path set, so no Dijkstra is needed and phases are cheap
   even with thousands of commodities; it is also why the dual bound is
   checked every 5 phases rather than Fleischer's 10. *)

type result = { lower : float; upper : float; phases : int }

module Metrics = Tb_obs.Metrics
module Trace = Tb_obs.Trace
module Convergence = Tb_obs.Convergence

let m_solves = Metrics.counter "restricted.solves"
let m_phases = Metrics.counter "restricted.phases"
let t_solve = Metrics.timer "restricted.solve"

(* Whether [arcs] is a contiguous arc chain from [at] to [dst]. *)
let rec is_chain g ~dst at = function
  | [] -> at = dst
  | a :: rest ->
    a >= 0 && a < Graph.num_arcs g && Graph.arc_src g a = at
    && is_chain g ~dst (Graph.arc_dst g a) rest

let reject (c : Commodity.t) what =
  invalid_arg
    (Printf.sprintf "Restricted.solve: commodity %d->%d: %s" c.Commodity.src
       c.Commodity.dst what)

(* Commodity [c]'s path set as arc arrays, each path checked once (an
   empty list is no chain: normalized commodities have [src <> dst]). *)
let flatten g (c : Commodity.t) ps =
  if Array.length ps = 0 then reject c "empty path set";
  for i = 0 to Array.length ps - 1 do
    if not (is_chain g ~dst:c.Commodity.dst c.Commodity.src ps.(i)) then
      reject c (Printf.sprintf "path %d is not an arc chain from src to dst" i)
  done;
  Array.map Array.of_list ps

let solve ?deadline ?(eps = 0.07) ?(tol = 0.03) ?(max_phases = 50_000)
    ?(on_check = Convergence.tracing "restricted") g ~paths cs =
  let on_check = Tb_obs.Deadline.guard deadline on_check in
  let cs = Commodity.normalize cs in
  if Array.length cs = 0 then invalid_arg "Restricted.solve: no commodities";
  (* Path enumeration is the caller's layer, so it runs before the
     solve timer starts. *)
  let paths =
    Array.map
      (fun (c : Commodity.t) ->
        flatten g c (paths c.Commodity.src c.Commodity.dst))
      cs
  in
  Metrics.incr m_solves;
  Metrics.time t_solve @@ fun () ->
  Trace.span "restricted.solve"
    ~args:[ ("commodities", Tb_obs.Json.Int (Array.length cs)) ]
  @@ fun () ->
  (* Pre-scale demands: route once along first paths. *)
  let load = Graph.make_floats (Graph.num_arcs g) in
  Bigarray.Array1.fill load 0.0;
  Array.iteri
    (fun j (c : Commodity.t) ->
      Array.iter
        (fun a -> load.{a} <- load.{a} +. c.Commodity.demand)
        paths.(j).(0))
    cs;
  let t = Mwu.create g ~eps ~load ~warm_lengths:None cs in
  (* The phase loop below is allocation-free: paths are flattened to arc
     arrays once, every loop is an index loop over local refs, and the
     shortest length is handed back through an unboxed cell rather than
     a boxed tuple. Sums and minima run in path order: reordering them
     would change the brackets' last bits. *)
  let len = t.Mwu.len and slot = t.Mwu.slot in
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
        l := !l +. len.{slot.{p.(k)}}
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
    for j = 0 to Array.length cs - 1 do
      ignore (shortest_of j);
      alpha := !alpha +. (t.Mwu.demand.(j) *. best_len.(0))
    done;
    !alpha
  in
  (* The step stays fixed: Fleischer's stall anneal would move these
     brackets (see DESIGN.md, "One MWU state"). *)
  let running = ref true in
  while !running do
    for j = 0 to Array.length cs - 1 do
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
