module Graph = Tb_graph.Graph
module Sssp = Tb_graph.Sssp
module Lp = Tb_lp.Lp
module Simplex = Tb_lp.Simplex

(* Exact maximum concurrent flow by path-based column generation.

   The edge-based LP ({!Exact}) needs commodities x arcs variables,
   which caps it at toy sizes under a dense simplex. The path
   formulation needs one variable per *used* path:

     maximize lambda
       sum_{p in P_j} x_p - d_j * lambda >= 0     (commodity rows)
       sum_{p owning a} x_p             <= c(a)   (capacity rows)

   Columns are priced in by Dijkstra: a path for commodity j improves
   the master iff its length under the capacity duals y_a is below the
   commodity dual alpha_j (standard LP pricing; optimal multicommodity
   solutions use few distinct paths, so the master stays small). On
   termination, no column prices in and the master optimum equals the
   exact throughput — same value as {!Exact}, at sizes well beyond it. *)

type result = {
  value : float;
  (* Chosen paths and their flows, per commodity. *)
  paths : (int list * float) list array;
  iterations : int;
  columns : int;
}

module Metrics = Tb_obs.Metrics
module Trace = Tb_obs.Trace

let m_solves = Metrics.counter "colgen.solves"
let m_iterations = Metrics.counter "colgen.iterations"
let m_columns = Metrics.counter "colgen.columns"
let m_dijkstra = Metrics.counter "dijkstra.runs"
let t_solve = Metrics.timer "colgen.solve"
let t_pricing = Metrics.timer "colgen.pricing"
let t_master = Metrics.timer "colgen.master"

module Convergence = Tb_obs.Convergence

let solve ?deadline ?(tol = 1e-7) ?(on_check = Convergence.tracing "colgen") g
    commodities =
  let on_check = Tb_obs.Deadline.guard deadline on_check in
  let cs = Commodity.normalize commodities in
  let k = Array.length cs in
  if k = 0 then invalid_arg "Colgen.solve: no non-trivial commodities";
  Metrics.incr m_solves;
  Metrics.time t_solve @@ fun () ->
  Trace.span "colgen.solve" ~args:[ ("commodities", Tb_obs.Json.Int k) ]
  @@ fun () ->
  let num_arcs = Graph.num_arcs g in
  let st = Sssp.create_state (Graph.num_nodes g) in
  (* Arc lengths for every Dijkstra run: unit while seeding, then the
     pricing lengths, refilled each iteration. *)
  let y = Graph.make_floats num_arcs in
  (* Column store: per commodity, the list of candidate paths. *)
  let columns : int list list array = Array.make k [] in
  let add_path j p =
    if not (List.mem p columns.(j)) then begin
      columns.(j) <- p :: columns.(j);
      true
    end
    else false
  in
  (* Seed with hop-shortest paths. *)
  Bigarray.Array1.fill y 1.0;
  Array.iteri
    (fun j c ->
      let dst = c.Commodity.dst in
      Sssp.dijkstra ~target:dst g ~len:y ~src:c.Commodity.src st;
      match Sssp.path_arcs g st dst with
      | Some p -> ignore (add_path j p)
      | None -> invalid_arg "Colgen.solve: unreachable commodity")
    cs;
  (* Build and solve the master over current columns. Variable 0 is
     lambda; then one variable per (commodity, path) in a flat order. *)
  let solve_master () =
    let var_of = Array.make k [] in
    let next = ref 1 in
    Array.iteri
      (fun j ps ->
        var_of.(j) <- List.map (fun p -> let v = !next in incr next; (v, p)) ps)
      columns;
    let num_vars = !next in
    let rows = ref [] in
    (* Commodity rows first (their duals feed the pricing). *)
    Array.iteri
      (fun j c ->
        let coeffs =
          (0, -.c.Commodity.demand)
          :: List.map (fun (v, _) -> (v, 1.0)) var_of.(j)
        in
        rows := Lp.row ~coeffs ~op:Lp.Ge ~rhs:0.0 :: !rows)
      cs;
    let arc_users = Array.make num_arcs [] in
    Array.iteri
      (fun _j vars ->
        List.iter
          (fun (v, p) -> List.iter (fun a -> arc_users.(a) <- v :: arc_users.(a)) p)
          vars)
      var_of;
    (* Push ascending so that after the final List.rev the capacity rows
       appear in ascending arc order, matching [used_arcs]. *)
    for a = 0 to num_arcs - 1 do
      if arc_users.(a) <> [] then
        rows :=
          Lp.row
            ~coeffs:(List.map (fun v -> (v, 1.0)) arc_users.(a))
            ~op:Lp.Le ~rhs:(Graph.arc_cap g a)
          :: !rows
    done;
    (* Row order after List.rev: commodity rows 0..k-1, then the
       capacity rows of arcs with users, ascending. *)
    let used_arcs =
      Array.to_list
        (Array.of_seq
           (Seq.filter
              (fun a -> arc_users.(a) <> [])
              (Seq.init num_arcs (fun a -> a))))
    in
    let problem =
      Lp.make ~num_vars ~objective:[ (0, 1.0) ] ~rows:(List.rev !rows)
    in
    match
      Metrics.time t_master (fun () ->
          Trace.span "colgen.master" (fun () -> Simplex.solve problem))
    with
    | Lp.Optimal s -> (s, var_of, used_arcs)
    | Lp.Unbounded -> failwith "Colgen: master unbounded (bug)"
    | Lp.Infeasible -> failwith "Colgen: master infeasible (bug)"
  in
  let rec iterate iter =
    let s, var_of, used_arcs = solve_master () in
    (* The master optimum over the current columns is a feasible flow,
       i.e. a certified lower bound; no upper bound is available until
       pricing terminates. One check per iteration lets a deadline sink
       abort a runaway column generation. *)
    Convergence.check on_check ~phase:iter ~lower:s.Lp.value ~upper:infinity
      ~eps:0.0;
    (* Duals: commodity rows are Ge in a max problem => alpha_j <= 0;
       capacity rows Le => y_a >= 0. Pricing for a new path p of
       commodity j: the column (coeff 1 in row j, 1 in each a in p)
       improves iff alpha_j + sum y_a < 0, i.e. the y-length of p is
       below -alpha_j. *)
    (* Pricing lengths: capacity duals plus a tiny floor so zero-dual
       arcs still order by hop count. *)
    Bigarray.Array1.fill y 1e-12;
    List.iteri
      (fun idx a -> y.{a} <- max 0.0 s.Lp.duals.(k + idx) +. 1e-12)
      used_arcs;
    let improved = ref false in
    Metrics.incr m_iterations;
    (* Pricing runs until no column prices in: every iteration but the
       last adds a column not yet in the pool, and simple paths are
       finitely many, so the loop ends; [?deadline] bounds its wall
       time. *)
    Metrics.time t_pricing (fun () ->
        Trace.span "colgen.pricing" (fun () ->
            Array.iteri
              (fun j c ->
                let alpha = s.Lp.duals.(j) in
                Metrics.incr m_dijkstra;
                Sssp.dijkstra g ~len:y ~src:c.Commodity.src st;
                let dist = Sssp.distance st c.Commodity.dst in
                if dist < -.alpha -. tol then begin
                  match Sssp.path_arcs g st c.Commodity.dst with
                  | Some p -> if add_path j p then improved := true
                  | None -> ()
                end)
              cs));
    if !improved then iterate (iter + 1)
    else begin
      let paths =
        Array.map
          (fun vars ->
            List.filter_map
              (fun (v, p) ->
                let f = s.Lp.assignment.(v) in
                if f > 1e-9 then Some (p, f) else None)
              vars)
          var_of
      in
      let total_columns =
        Array.fold_left (fun acc ps -> acc + List.length ps) 0 columns
      in
      Metrics.add m_columns total_columns;
      { value = s.Lp.value; paths; iterations = iter; columns = total_columns }
    end
  in
  iterate 1
