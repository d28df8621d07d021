(* fig2-ladder: the paper's Fig. 2 TM ladder, cell by cell, the way the
   experiments solve it (Tb_experiments.Common.throughput): TM
   generation, then [Request.of_instance ~solver:Fptas ~eps:0.4
   ~tol:0.06] and [Service.handle ~prebuilt]. A cycle is one pass over
   the figure with a fresh service and store, so every cell is a
   service write.

   Instances: hypercube dim 3-6, Jellyfish n=32 of degree 3-9 and fat
   tree k=4-10; TMs A2A, RM-10, RM-2, RM-1, Kodialam and LM. Hypercube
   dim 7 is left out: its RM cells take 1-11 s depending on the draw,
   so one cell would set a run's throughput. Pass p of seed S draws its
   Jellyfish graphs and random matchings from (S, p). *)

module W = Workload
module S = Tb_service
module Syn = Tb_tm.Synthetic
module Rng = Tb_prelude.Rng
module Topology = Tb_topo.Topology
module Spans = Benchkit.Spans
module Cert = Tb_cert.Cert

let passes = 8
let eps = 0.4
let tol = 0.06

(* Same cut-off as the figure: Kodialam's LP stops being affordable. *)
let kodialam_max_endpoints = 80

type tm_kind = A2a | Rm of int * int (* k, salt *) | Kodialam | Lm

let ladder topo =
  [ A2a; Rm (10, 1); Rm (2, 2); Rm (1, 3) ]
  @ (if Array.length (Topology.endpoint_nodes topo) <= kodialam_max_endpoints
     then [ Kodialam ]
     else [])
  @ [ Lm ]

let generate spans rng topo = function
  | A2a -> Spans.record spans "tm.other" (fun () -> Syn.all_to_all topo)
  | Rm (k, salt) ->
    Spans.record spans "tm.other" (fun () ->
        Syn.random_matching ~k (Rng.split rng salt) topo)
  | Kodialam -> Spans.record spans "tm.kodialam" (fun () -> Syn.kodialam topo)
  | Lm -> Spans.record spans "tm.lm" (fun () -> Syn.longest_matching topo)

(* One cell. The A2A cell leaves its bracket in [a2a] so the LM cell of
   the same instance can check Theorem 2 (t_LM >= t_A2A / 2). *)
let cell ~svc ~rng ~a2a topo kind : W.op =
 fun spans ->
  let tm = generate spans rng topo kind in
  let req =
    Spans.record spans "service.request" (fun () ->
        S.Request.of_instance ~solver:S.Request.Fptas ~eps ~tol topo tm)
  in
  let resp =
    Spans.record spans "service.handle" (fun () ->
        S.Service.handle ~prebuilt:(topo, tm) svc req)
  in
  let r = resp.S.Service.result in
  let verify () =
    let bracket = (r.S.Result.lower, r.S.Result.upper) in
    let theorem2 =
      match (kind, !a2a) with
      | A2a, _ ->
        a2a := Some bracket;
        []
      | Lm, Some a -> [ ("theorem2", Cert.theorem2 ~a2a:a ~lm:bracket ()) ]
      | Lm, None -> [ ("theorem2", Error "no A2A cell before the LM cell") ]
      | _ -> []
    in
    W.service_checks ~tol r @ theorem2
  in
  let replay () =
    W.cold_replay topo.Topology.graph (Tb_tm.Tm.commodities tm)
  in
  { W.outcome = W.of_response resp; verify; replay = Some replay }

let setup ~spans ~seed ~tmp =
  let build f = W.build_topo spans f in
  let fixed =
    List.map (fun dim -> build (fun () -> Tb_topo.Hypercube.make ~dim ())) [ 3; 4; 5; 6 ]
  in
  let fat_trees =
    List.map (fun k -> build (fun () -> Tb_topo.Fattree.make ~k ())) [ 4; 6; 8; 10 ]
  in
  Array.init passes (fun p ->
      let rng = Rng.split (Rng.make seed) p in
      let jellyfish =
        List.map
          (fun degree ->
            build (fun () ->
                Tb_topo.Jellyfish.make ~rng:(Rng.split rng (2000 + degree)) ~n:32
                  ~degree ()))
          [ 3; 4; 5; 6; 7; 8; 9 ]
      in
      let instances = fixed @ jellyfish @ fat_trees in
      let path = Filename.concat tmp (Printf.sprintf "fig2-pass%d.ndjson" p) in
      fun () ->
        let svc, cleanup = W.service ~capacity:512 ~path in
        (* [Rng.split] advances its parent: derive the matching streams
           afresh on every run of the cycle, so a repeated pass draws
           the same matchings. *)
        let tm_rng = Rng.split (Rng.make seed) (passes + p) in
        let ops =
          List.concat
            (List.mapi
               (fun i topo ->
                 let rng = Rng.split tm_rng (1000 + i) in
                 let a2a = ref None in
                 List.map (cell ~svc ~rng ~a2a topo) (ladder topo))
               instances)
        in
        (Array.of_list ops, cleanup))

let workload = { W.name = "fig2-ladder"; tail_q = 0.9; setup }
