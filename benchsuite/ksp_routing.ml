(* ksp-routing: the paper's Sec. V routing-restriction ablation. The LM
   TM is solved with flows pinned to their k diverse shortest paths
   (Routing.ksp_throughput, k = 1, 2, 4, 8: Llskr path enumeration then
   the path-restricted Restricted solver), then unrestricted
   (Throughput.of_tm), on fat trees k = 6, 8, 10 and a same-equipment
   Jellyfish of each. Both solvers run at eps 0.4, tol 0.1: at tol 0.06
   one restricted solve in twenty on a random graph takes 10-100x its
   median, and those few cells would set a run's throughput and
   allocation. A cycle is one pass; pass p of seed S wires its
   Jellyfish graphs from (S, p). *)

module W = Workload
module Rng = Tb_prelude.Rng
module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Spans = Benchkit.Spans
module Routing = Topobench.Routing
module Mcf = Tb_flow.Mcf

let passes = 40
let eps = 0.4
let tol = 0.1
let ks = [ 1; 2; 4; 8 ]

type instance = { topo : Topology.t; tm : Tm.t; text : string }

let instance topo =
  let tm = Tb_tm.Synthetic.longest_matching topo in
  { topo; tm; text = Tb_topo.Io.to_string topo ^ Tb_tm.Io.to_string tm }

let key inst what = W.digest [ inst.text; what; W.float_key eps; W.float_key tol ]

(* The restricted cells leave their lower bounds in [lowers]; the
   unrestricted cell, last in the group, checks that no routing
   restriction beats the optimum's upper bound. *)
let restricted_cell ~lowers inst k : W.op =
 fun spans ->
  let r =
    Spans.record spans "routing.ksp" (fun () ->
        Routing.ksp_throughput ~eps ~tol inst.topo inst.tm ~k)
  in
  let lower = r.Routing.lower and upper = r.Routing.upper in
  let verify () =
    lowers := (k, lower) :: !lowers;
    [ W.ordered ~lower ~upper ]
  in
  {
    W.outcome =
      { key = key inst (Printf.sprintf "k=%d" k); lower; upper; solved = true; rung = ""; error = None };
    verify;
    replay = None;
  }

let optimal_cell ~lowers inst : W.op =
 fun spans ->
  let e =
    Spans.record spans "throughput.of_tm" (fun () ->
        Topobench.Throughput.of_tm ~solver:(Mcf.Approx { eps; tol }) inst.topo inst.tm)
  in
  let lower = e.Mcf.lower and upper = e.Mcf.upper in
  let verify () =
    W.ordered ~lower ~upper
    :: List.map
         (fun (k, l) ->
           ( Printf.sprintf "k=%d below optimum" k,
             if l <= upper *. (1.0 +. 1e-6) then Ok ()
             else Error (Printf.sprintf "restricted lower %g > optimal upper %g" l upper) ))
         !lowers
  in
  let replay () =
    W.cold_replay inst.topo.Topology.graph (Tm.commodities inst.tm)
  in
  {
    W.outcome = { key = key inst "optimal"; lower; upper; solved = true; rung = ""; error = None };
    verify;
    replay = Some replay;
  }

let setup ~spans ~seed ~tmp:_ =
  let build f = W.build_topo spans f in
  let fat_trees = List.map (fun k -> build (fun () -> Tb_topo.Fattree.make ~k ())) [ 6; 8; 10 ] in
  let fixed = List.map instance fat_trees in
  Array.init passes (fun p ->
      let rng = Rng.split (Rng.make seed) p in
      let jellyfish =
        List.map
          (fun ft ->
            instance
              (build (fun () ->
                   Tb_topo.Jellyfish.matching_equipment
                     ~rng:(Rng.split rng (Topology.num_switches ft))
                     ft)))
          fat_trees
      in
      fun () ->
        let group inst =
          let lowers = ref [] in
          List.map (restricted_cell ~lowers inst) ks @ [ optimal_cell ~lowers inst ]
        in
        (Array.of_list (List.concat_map group (fixed @ jellyfish)), W.no_cleanup))

let workload = { W.name = "ksp-routing"; tail_q = 0.9; setup }
