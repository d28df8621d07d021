module Graph = Tb_graph.Graph
module Equipment = Tb_graph.Equipment
module Topology = Tb_topo.Topology
module Catalog = Tb_topo.Catalog
module Synthetic = Tb_tm.Synthetic
module Estimator = Tb_cuts.Estimator
module Table = Tb_prelude.Table
module Rng = Tb_prelude.Rng
module Mcf = Tb_flow.Mcf

(* Theorem demonstrations.

   Theorem 1 / Fig. 1: two graphs on the same node count where the
   sparsest-cut ordering contradicts the throughput ordering.
   - Graph A: clustered random graph — two n/2 clusters, alpha
     intra-cluster degree, beta ~ alpha/log n cross links. Its cut and
     throughput are both limited by the thin waist.
   - Graph B: a 2d-regular random expander on n/p nodes with every edge
     subdivided into a path of length p. Subdividing preserves cut
     structure (cuts scale as 1/p^... slowly) but doubles every route,
     crushing throughput volumetrically.
   Expected: cut(B) > cut(A) but throughput(B) < throughput(A).

   Theorem 2: throughput(any hose TM) >= throughput(A2A) / 2, checked on
   every family under RM and LM. *)

let clustered_random rng ~n ~alpha ~beta =
  if n mod 2 <> 0 then invalid_arg "Theory.clustered_random";
  let half = n / 2 in
  (* Random alpha-regular graphs inside each cluster... *)
  let intra offset =
    List.map
      (fun (u, v) -> (u + offset, v + offset))
      (Equipment.random_with_degrees rng (Array.make half alpha))
  in
  (* ...plus a random beta-regular bipartite graph across. *)
  let cross =
    (* beta rounds of a random left-right perfect matching give a
       beta-regular bipartite cross graph; the rare duplicate edge is
       dropped (one unit of degree slack does not affect the demo). *)
    let seen = Hashtbl.create (beta * half) in
    let acc = ref [] in
    for _ = 1 to beta do
      let perm = Tb_graph.Permutation.random rng half in
      Array.iteri
        (fun u v ->
          let e = (u, v + half) in
          if not (Hashtbl.mem seen e) then begin
            Hashtbl.add seen e ();
            acc := e :: !acc
          end)
        perm
    done;
    !acc
  in
  let edges = intra 0 @ intra half @ cross in
  let edges = Equipment.connect_by_swaps rng ~n edges in
  Graph.of_unit_edges ~n edges

let subdivided_expander rng ~n ~d ~p =
  let base = n / (1 + (d * (p - 1))) in
  (* A 2d-regular expander on [base] nodes; subdividing each of the
     base*d edges into a path of length p adds (p-1) nodes per edge. *)
  let g = Equipment.random_regular rng ~n:base ~degree:(2 * d) in
  let next = ref base in
  let edges = ref [] in
  Graph.iter_edges
    (fun _ e ->
      let chain = Array.init (p - 1) (fun _ -> let v = !next in incr next; v) in
      let nodes = Array.concat [ [| e.Graph.u |]; chain; [| e.Graph.v |] ] in
      for i = 0 to Array.length nodes - 2 do
        edges := (nodes.(i), nodes.(i + 1)) :: !edges
      done)
    g;
  (Graph.of_unit_edges ~n:!next !edges, base)

let uniform_tm g =
  Synthetic.all_to_all
    (Topology.switch_centric ~name:"plain" ~params:"" ~hosts_per_switch:1 g)

let run_theorem1 cfg =
  Common.section "Theorem 1 / Figure 1: cuts can order graphs wrongly";
  (* The theorem's engine is volumetric: subdividing every edge of an
     expander into a path of length p stretches every route (throughput
     falls ~1/(p log n)) while cuts only thin out ~1/p, so the
     cut/throughput gap widens with p. A tight clustered graph (gap ~ 1)
     plus a sufficiently subdivided expander then orders differently
     under cuts than under throughput. We measure the gap across p and
     report whether the flip materializes at this (small) scale. *)
  let d = 3 in
  let base = if cfg.Common.quick then 12 else 16 in
  let t =
    Table.create ~title:"Theorem 1 demo (uniform TM)"
      [ "graph"; "n"; "edges"; "throughput"; "sparse-cut"; "cut/tp" ]
  in
  let describe label g =
    let tm = uniform_tm g in
    let est =
      Topobench.Throughput.of_graph
        ~solver:(Mcf.Approx { eps = cfg.Common.eps; tol = cfg.Common.tol })
        g tm
    in
    let report = Estimator.run g (Tb_tm.Tm.flows tm) in
    Table.add_row t
      [
        label;
        string_of_int (Graph.num_nodes g);
        string_of_int (Graph.num_edges g);
        Table.cell_f est.Mcf.value;
        Table.cell_f report.Estimator.sparsity;
        Table.cell_f (report.Estimator.sparsity /. est.Mcf.value);
      ];
    (est.Mcf.value, report.Estimator.sparsity)
  in
  let a =
    clustered_random (Common.rng cfg 1702) ~n:(base * (1 + (2 * d))) ~alpha:5
      ~beta:1
  in
  let tp_a, cut_a = describe "A: clustered random" a in
  let flip = ref None in
  List.iter
    (fun p ->
      let nb = base * (1 + (d * (p - 1))) in
      let b, _ = subdivided_expander (Common.rng cfg (1701 + p)) ~n:nb ~d ~p in
      let tp_b, cut_b = describe (Printf.sprintf "B: expander, p=%d" p) b in
      if !flip = None && cut_b > cut_a && tp_b < tp_a then flip := Some p)
    [ 1; 2; 3 ];
  Table.print t;
  (match !flip with
  | Some p ->
    Printf.printf
      "Ordering flip at p=%d: B has the larger sparse cut but the smaller \
       throughput.\n"
      p
  | None ->
    Printf.printf
      "No full flip at this scale (the Theta(log n) separation needs larger \
       n); the widening cut/tp gap with p is the theorem's mechanism.\n")

let run_theorem2 cfg =
  Common.section "Theorem 2: A2A/2 lower-bounds every hose TM";
  let t =
    Table.create ~title:"Theorem 2 check (violations would read < 1.00)"
      [ "family"; "lb=A2A/2"; "RM/lb"; "LM/lb" ]
  in
  let rows =
    Common.parallel_map
      (fun (fi, family) ->
        let topo =
          Topology.unit_hosts
            (Catalog.representative ~rng:(Common.rng cfg (1800 + fi)) family)
        in
        let a2a = Common.throughput cfg topo (Synthetic.all_to_all topo) in
        let lb = a2a /. 2.0 in
        let rm =
          Common.throughput cfg topo
            (Synthetic.random_matching ~k:1 (Common.rng cfg (1900 + fi)) topo)
        in
        let lm = Common.throughput cfg topo (Synthetic.longest_matching topo) in
        [
          Catalog.family_name family;
          Table.cell_f lb;
          Table.cell_f (rm /. lb);
          Table.cell_f (lm /. lb);
        ])
      (List.mapi (fun fi f -> (fi, f)) Catalog.all_families)
  in
  List.iter (Table.add_row t) rows;
  Table.print t

let run cfg =
  run_theorem1 cfg;
  run_theorem2 cfg
