(* service-zipf: the serving path, one ndjson line in and one line out
   per op (Request.of_line, Service.handle, response rendering), in a
   closed loop with one client. A cycle replays a 4000-request Zipf
   (s = 1.0) mix against a fresh service: a 64-entry LRU in front of a
   store, so about nine requests in ten are hits (the median is the
   service overhead) and the misses run the exact-LP, FPTAS and
   cut-bound rungs (the tail is a solve). Misses write the store; LRU
   misses read it back.

   The request pool is fixed: every instance of at most 20 switches
   below, with the a2a and lm TMs, rm1 under 12 seeds, rm5 under 6
   seeds, and cut-bound a2a and lm. Requests the exact rung would take
   with more than 600 LP variables are dropped (their misses take
   0.1-1 s). The seed only draws the mixes: mix c of seed S comes from
   (S, c). *)

module W = Workload
module S = Tb_service
module Json = Tb_obs.Json
module Spans = Benchkit.Spans

let mixes = 8
let requests = 4000
let lru_capacity = 64

let specs =
  [
    "hypercube:3"; "hypercube:4"; "fattree:4"; "jellyfish:12,deg=3";
    "jellyfish:12,deg=4"; "jellyfish:12,deg=5"; "jellyfish:16,deg=3";
    "jellyfish:16,deg=4"; "jellyfish:16,deg=6"; "jellyfish:20,deg=4";
    "jellyfish:20,deg=6"; "flatbf:2"; "dragonfly:1"; "bcube:3"; "dcell:3";
    "xpander:2,deg=4"; "xpander:3,deg=4"; "longhop:3"; "longhop:4";
  ]

let entries =
  [ ("a2a", 42, "auto"); ("lm", 42, "auto"); ("a2a", 42, "cuts"); ("lm", 42, "cuts") ]
  @ List.init 12 (fun i -> ("rm1", i + 1, "auto"))
  @ List.init 6 (fun i -> ("rm5", i + 1, "auto"))

(* The exact rung's LP-size cut-off (Tb_harness.Solve.default_policy),
   fixed here so the pool does not move when the program's does. *)
let exact_threshold = 1500
let max_exact_vars = 600

let pool spans =
  List.concat_map
    (fun spec ->
      List.filter_map
        (fun (tm, seed, solver) ->
          let line =
            Printf.sprintf {|{"topo":{"spec":"%s"},"tm":{"named":"%s"},"seed":%d,"solver":"%s"}|}
              spec tm seed solver
          in
          let req =
            match S.Request.of_line line with Ok r -> r | Error e -> failwith e
          in
          let topo =
            W.build_topo spans (fun () -> S.Request.build_topology req.S.Request.topo)
          in
          let tm = S.Request.build_tm req topo in
          let vars =
            (Tb_tm.Tm.num_flows tm * Tb_graph.Graph.num_arcs topo.Tb_topo.Topology.graph) + 1
          in
          if solver = "auto" && vars > max_exact_vars && vars <= exact_threshold
          then None
          else Some line)
        entries)
    specs
  |> Array.of_list

(* One request. A hit must render the very result bytes of the miss
   that filled it ([filled], per cycle). *)
let request ~svc ~filled line : W.op =
 fun spans ->
  match Spans.record spans "service.request" (fun () -> S.Request.of_line line) with
  | Error e -> failwith e
  | Ok req ->
    let resp = Spans.record spans "service.handle" (fun () -> S.Service.handle svc req) in
    let rendered =
      Spans.record spans "service.render" (fun () ->
          Json.to_string (S.Service.response_json resp))
    in
    ignore (Sys.opaque_identity rendered);
    let r = resp.S.Service.result in
    let verify () =
      let bytes = Json.to_string (S.Result.to_json r) in
      let hit =
        if not resp.S.Service.cached then begin
          Hashtbl.replace filled resp.S.Service.hash bytes;
          []
        end
        else
          [
            ( "hit_bytes",
              match Hashtbl.find_opt filled resp.S.Service.hash with
              | Some b when b = bytes -> Ok ()
              | Some _ -> Error "hit differs from the miss that filled it"
              | None -> Error "hit without a miss in this cycle" );
          ]
      in
      W.service_checks ~tol:req.S.Request.tol r @ hit
    in
    let replay =
      if resp.S.Service.cached || r.S.Result.rung <> "fptas" then None
      else
        Some
          (fun () ->
            let topo, tm = S.Request.build req in
            W.cold_replay topo.Tb_topo.Topology.graph (Tb_tm.Tm.commodities tm))
    in
    { W.outcome = W.of_response resp; verify; replay }

let setup ~spans ~seed ~tmp =
  let pool = pool spans in
  let path = Filename.concat tmp "zipf.ndjson" in
  Array.init mixes (fun c ->
      let mix =
        Benchkit.Zipf.mix ~seed:((seed * mixes) + c) ~items:(Array.length pool)
          ~count:requests
      in
      fun () ->
        let svc, cleanup = W.service ~capacity:lru_capacity ~path in
        let filled = Hashtbl.create 512 in
        (Array.map (fun i -> request ~svc ~filled pool.(i)) mix, cleanup))

(* p99.9 would still have about 20 samples beyond it, but those are the
   few costliest pool entries: across ten runs its quartiles spread 12%
   of its median, against 4% for p99. *)
let workload = { W.name = "service-zipf"; tail_q = 0.99; setup }
