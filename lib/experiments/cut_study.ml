module Topology = Tb_topo.Topology
module Catalog = Tb_topo.Catalog
module Natural = Tb_topo.Natural
module Synthetic = Tb_tm.Synthetic
module Tm = Tb_tm.Tm
module Estimator = Tb_cuts.Estimator
module Bisection = Tb_cuts.Bisection
module Parallel = Tb_prelude.Parallel
module Mcf = Tb_flow.Mcf

(* Shared computation behind Fig. 3 (throughput vs sparse cut scatter)
   and Table II (which estimator found the sparse cut, and how often the
   cut matches throughput): for every network in the study set, compute
   the longest-matching TM's exact-as-possible throughput, the best
   sparse cut over the full estimator suite, and the bisection-bandwidth
   bound. *)

type row = {
  topo : Topology.t;
  throughput : Mcf.estimate;
  report : Estimator.report;
  bisection_bound : float;
}

let study_set cfg =
  let rng = Common.rng cfg 31 in
  let families = Catalog.all_families in
  let from_families =
    List.concat_map (fun f -> Catalog.small ~rng f) families
  in
  let jellyfish_count = if cfg.Common.quick then 6 else 20 in
  let jellyfish =
    List.init jellyfish_count (fun i ->
        Tb_topo.Jellyfish.make
          ~rng:(Tb_prelude.Rng.split rng (500 + i))
          ~n:(12 + (2 * (i mod 5)))
          ~degree:(3 + (i mod 3))
          ())
  in
  let naturals =
    Natural.zoo ~count:(if cfg.Common.quick then 16 else 66) ~seed:cfg.Common.seed ()
  in
  from_families @ jellyfish @ naturals

let compute_row cfg topo =
  let tm = Synthetic.longest_matching topo in
  let throughput =
    Topobench.Throughput.of_tm
      ~solver:(Mcf.Approx { eps = cfg.Common.eps; tol = cfg.Common.tol })
      topo tm
  in
  let flows = Tm.flows tm in
  let report = Estimator.run topo.Topology.graph flows in
  let bisection_bound =
    Bisection.as_throughput_bound ~rng:(Common.rng cfg 77)
      topo.Topology.graph flows
  in
  { topo; throughput; report; bisection_bound }

let cache : (Common.config * row list) option ref = ref None

let rows cfg =
  match !cache with
  | Some (c, r) when c = cfg -> r
  | _ ->
    let set = Array.of_list (study_set cfg) in
    let out =
      Array.to_list (Parallel.force_map_array (fun t -> compute_row cfg t) set)
    in
    cache := Some (cfg, out);
    out

(* A cut "matches" throughput when it is within the solver bracket plus
   a small tolerance (cuts upper-bound throughput, so only the low side
   matters). *)
let matches_throughput r v =
  v <= r.throughput.Mcf.upper *. 1.02 +. 1e-9

let cut_equals_throughput r = matches_throughput r r.report.Estimator.sparsity
