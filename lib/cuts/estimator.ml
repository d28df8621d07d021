module Graph = Tb_graph.Graph

(* The full estimator suite of Appendix C: run every sparse-cut
   heuristic, report the best (minimum) sparsity found and which
   estimators attained it — the data behind Table II and the "sparse
   cut" axis of Fig. 3. *)

type estimator = Brute_force | One_node | Two_node | Expanding | Eigenvector

let all = [ Brute_force; One_node; Two_node; Expanding; Eigenvector ]

let name = function
  | Brute_force -> "brute"
  | One_node -> "1-node"
  | Two_node -> "2-node"
  | Expanding -> "expanding"
  | Eigenvector -> "eigenvector"

type report = {
  sparsity : float; (* best sparse cut found by any estimator *)
  per_estimator : (estimator * float) list;
  winners : estimator list; (* estimators attaining [sparsity] *)
  best_cut : Cut.t option; (* witness attaining [sparsity] *)
}

let run ?(max_brute_cuts = Brute.default_cap) g flows =
  let p = Cut.prepare g flows in
  let results =
    List.map
      (fun est ->
        let v, cut =
          match est with
          | Brute_force -> Brute.sparsest ~max_cuts:max_brute_cuts p
          | One_node -> Small_cuts.sparsest_one_node p
          | Two_node -> Small_cuts.sparsest_two_node p
          | Expanding -> Expanding.sparsest p
          | Eigenvector -> Eigen_sweep.sparsest p
        in
        (est, v, cut))
      all
  in
  let best = List.fold_left (fun acc (_, v, _) -> min acc v) infinity results in
  let winners =
    List.filter_map
      (fun (e, v, _) -> if v <= best *. (1.0 +. 1e-9) then Some e else None)
      results
  in
  let best_cut =
    List.find_map
      (fun (_, v, cut) -> if v <= best *. (1.0 +. 1e-9) then cut else None)
      results
  in
  {
    sparsity = best;
    per_estimator = List.map (fun (e, v, _) -> (e, v)) results;
    winners;
    best_cut;
  }

let run_tm ?max_brute_cuts g tm = run ?max_brute_cuts g (Tb_tm.Tm.flows tm)
