module Graph = Tb_graph.Graph
module Kshortest = Tb_graph.Kshortest
module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Synthetic = Tb_tm.Synthetic
module Commodity = Tb_flow.Commodity
module Exact = Tb_flow.Exact
module Colgen = Tb_flow.Colgen
module Fleischer = Tb_flow.Fleischer
module Restricted = Tb_flow.Restricted
module Estimator = Tb_cuts.Estimator
module Cert = Tb_cert.Cert
module Request = Tb_service.Request
module Service = Tb_service.Service
module Sresult = Tb_service.Result
module Json = Tb_obs.Json

(* One fuzz instance goes through every solver route that can afford it,
   and every claim is checked twice: once against its own certificate
   (Cert) and once against everyone else's bracket (agreement). The
   routes are deliberately redundant — the whole point of differential
   testing is that independent implementations only agree when they are
   all right. *)

type failure = {
  cert : string;
  detail : string;
  seed : int;
  tag : string;
}

type tally = {
  counts : (string, int ref * int ref) Hashtbl.t;
  mutable fail_log : failure list; (* newest first *)
}

let create () = { counts = Hashtbl.create 16; fail_log = [] }

let slot t name =
  match Hashtbl.find_opt t.counts name with
  | Some s -> s
  | None ->
    let s = (ref 0, ref 0) in
    Hashtbl.add t.counts name s;
    s

let record t ~inst ~cert verdict =
  let pass, fail = slot t cert in
  match verdict with
  | Ok () -> incr pass
  | Error detail ->
    incr fail;
    t.fail_log <-
      { cert; detail; seed = inst.Gen.seed; tag = inst.Gen.tag } :: t.fail_log;
    Logs.warn (fun m ->
        m "check: %s FAILED on %s: %s" cert (Gen.describe inst) detail)

let passes t name =
  match Hashtbl.find_opt t.counts name with Some (p, _) -> !p | None -> 0

let fails t name =
  match Hashtbl.find_opt t.counts name with Some (_, f) -> !f | None -> 0

let total_failures t = List.length t.fail_log
let failures t = List.rev t.fail_log

let exercised t =
  let extra =
    Hashtbl.fold
      (fun k _ acc -> if List.mem k Cert.all_names then acc else k :: acc)
      t.counts []
    |> List.sort compare
  in
  List.filter (fun n -> passes t n + fails t n > 0) (Cert.all_names @ extra)

let to_json t =
  let extra =
    Hashtbl.fold
      (fun k _ acc -> if List.mem k Cert.all_names then acc else k :: acc)
      t.counts []
    |> List.sort compare
  in
  let certs =
    List.map
      (fun name ->
        ( name,
          Json.Obj
            [ ("pass", Json.Int (passes t name));
              ("fail", Json.Int (fails t name))
            ] ))
      (Cert.all_names @ extra)
  in
  Json.Obj
    [
      ("certificates", Json.Obj certs);
      ( "failures",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("cert", Json.String f.cert);
                   ("seed", Json.Int f.seed);
                   ("tag", Json.String f.tag);
                   ("detail", Json.String f.detail);
                 ])
             (failures t)) );
    ]

(* ---- Instance transforms for the metamorphic properties. ---- *)

let scale_caps factor (topo : Topology.t) =
  let g = topo.Topology.graph in
  let edges =
    Graph.fold_edges
      (fun acc _ (e : Graph.edge) ->
        (e.Graph.u, e.Graph.v, e.Graph.cap *. factor) :: acc)
      [] g
  in
  Topology.make ~name:topo.Topology.name ~params:topo.Topology.params
    ~kind:topo.Topology.kind
    ~graph:(Graph.of_edges ~n:(Graph.num_nodes g) edges)
    ~hosts:topo.Topology.hosts

(* Rotate every node id by one: throughput must not notice. *)
let rotate (topo : Topology.t) tm =
  let g = topo.Topology.graph in
  let n = Graph.num_nodes g in
  let perm = Array.init n (fun v -> (v + 1) mod n) in
  let edges =
    Graph.fold_edges
      (fun acc _ (e : Graph.edge) ->
        (perm.(e.Graph.u), perm.(e.Graph.v), e.Graph.cap) :: acc)
      [] g
  in
  let hosts = Array.make n 0 in
  Array.iteri (fun v h -> hosts.(perm.(v)) <- h) topo.Topology.hosts;
  let topo' =
    Topology.make ~name:topo.Topology.name ~params:topo.Topology.params
      ~kind:topo.Topology.kind
      ~graph:(Graph.of_edges ~n edges)
      ~hosts
  in
  (topo', Tm.relabel perm tm)

(* ---- The runner. ---- *)

(* Route-admission caps: the exact edge LP is dense-simplex cubic in its
   variable count, column generation and Yen's algorithm are per-
   commodity. Instances over a cap simply skip that route — the fuzzer
   trades route coverage per instance for instance throughput. *)
let fleischer_tol = 0.03
let exact_variable_cap = 4_000
let colgen_commodity_cap = 100
let restricted_commodity_cap = 150

let bracket (r : Fleischer.result) = (r.Fleischer.lower, r.Fleischer.upper)

let check_instance ~service t ~index (inst : Gen.instance) =
  try
    let topo = inst.Gen.topo in
    let g = topo.Topology.graph in
    let tm = inst.Gen.tm in
    let flows = Tm.flows tm in
    let cs = Tm.commodities tm in
    let brackets = ref [] in
    let add_bracket name lo hi = brackets := (name, lo, hi) :: !brackets in

    (* Exact edge LP: ground truth when the LP fits. *)
    let exact =
      if Exact.variable_budget g cs <= exact_variable_cap then begin
        let v, flow = Exact.solve g cs in
        record t ~inst ~cert:"primal_feasible"
          (Cert.primal_feasible g cs ~throughput:v ~flow);
        add_bracket "exact" v v;
        Some v
      end
      else None
    in

    (* Column generation: same optimum, path-structured certificate. *)
    if Array.length cs <= colgen_commodity_cap then begin
      let r = Colgen.solve g cs in
      record t ~inst ~cert:"path_flows_feasible"
        (Cert.path_flows_feasible g cs ~throughput:r.Colgen.value
           ~paths:r.Colgen.paths);
      add_bracket "colgen" r.Colgen.value r.Colgen.value
    end;

    (* FPTAS: primal flow and dual length certificates, plus the
       approximation-guarantee check against ground truth. *)
    let fr = Fleischer.solve ~tol:fleischer_tol g cs in
    record t ~inst ~cert:"primal_feasible"
      (Cert.primal_feasible g cs ~throughput:fr.Fleischer.lower
         ~flow:fr.Fleischer.flow);
    record t ~inst ~cert:"dual_bound"
      (Cert.dual_bound_valid g cs ~lengths:fr.Fleischer.lengths
         ~upper:fr.Fleischer.upper);
    record t ~inst ~cert:"bounds_ordered"
      (Cert.bounds_ordered ~lower:fr.Fleischer.lower ~value:(Fleischer.value fr)
         ~upper:fr.Fleischer.upper ());
    add_bracket "fptas" fr.Fleischer.lower fr.Fleischer.upper;
    (match exact with
    | Some v ->
      record t ~inst ~cert:"fptas_gap"
        (Cert.fptas_gap ~eps:Fleischer.default_eps ~exact:v fr)
    | None -> ());

    (* Restricted-path MCF over k-shortest paths: a certified lower
       bound on the unrestricted optimum, never above it. *)
    if Array.length cs <= restricted_commodity_cap then begin
      let paths src dst =
        Array.of_list
          (List.map
             (fun p -> p.Kshortest.arcs)
             (Kshortest.k_shortest g ~len:(fun _ -> 1.0) ~src ~dst ~k:3))
      in
      let rr = Restricted.solve ~tol:fleischer_tol g ~paths cs in
      let unrestricted_upper =
        match exact with
        | Some v -> Float.min v fr.Fleischer.upper
        | None -> fr.Fleischer.upper
      in
      record t ~inst ~cert:"restricted_bound"
        (if
           rr.Restricted.lower
           <= (unrestricted_upper *. (1.0 +. 1e-6)) +. 1e-9
         then Ok ()
         else
           Error
             (Printf.sprintf
                "restricted-path lower %g exceeds unrestricted upper %g"
                rr.Restricted.lower unrestricted_upper))
    end;

    (* Sparse-cut estimators: recompute the witness cut's sparsity. *)
    let rep = Estimator.run g flows in
    (match rep.Estimator.best_cut with
    | Some cut when Float.is_finite rep.Estimator.sparsity ->
      record t ~inst ~cert:"cut_bound"
        (Cert.cut_bound_valid g flows ~cut ~claimed:rep.Estimator.sparsity);
      add_bracket "cut" 0.0 rep.Estimator.sparsity
    | _ -> ());

    (* The service front door: per-solver requests, so the degradation
       chain and the content-addressed cache both get exercised. *)
    let run_request name solver =
      let req = Request.of_instance ~solver topo tm in
      let resp = Service.handle ~prebuilt:(topo, tm) service req in
      (match resp.Service.result.Sresult.error with
      | Some e ->
        record t ~inst ~cert:"service_ok"
          (Error (Printf.sprintf "%s: %s" name e))
      | None ->
        record t ~inst ~cert:"service_ok" (Ok ());
        record t ~inst ~cert:"bounds_ordered"
          (Cert.bounds_ordered ~lower:resp.Service.result.Sresult.lower
             ~value:resp.Service.result.Sresult.value
             ~upper:resp.Service.result.Sresult.upper ());
        add_bracket ("svc:" ^ name) resp.Service.result.Sresult.lower
          resp.Service.result.Sresult.upper);
      resp
    in
    let auto = run_request "auto" Request.Auto in
    ignore (run_request "fptas" Request.Fptas);
    ignore (run_request "cuts" Request.Cut_bound);
    if Exact.variable_budget g cs <= exact_variable_cap then
      ignore (run_request "exact" Request.Exact_lp);

    (* Cache identity: re-issuing the auto request must hit and must
       render to the very bytes of the original solve. *)
    if auto.Service.result.Sresult.error = None then begin
      let again =
        Service.handle ~prebuilt:(topo, tm) service
          (Request.of_instance topo tm)
      in
      record t ~inst ~cert:"cache_identity"
        (if not again.Service.cached then
           Error "second identical request missed the cache"
         else if
           Json.to_string (Sresult.to_json again.Service.result)
           <> Json.to_string (Sresult.to_json auto.Service.result)
         then Error "cache hit renders different JSON than the solve"
         else Ok ())
    end;

    record t ~inst ~cert:"agreement" (Cert.agreement !brackets);

    (* Metamorphic properties, rotated so each instance pays for one. *)
    (match index mod 3 with
    | 0 ->
      (* Throughput is homogeneous of degree 1 in capacity. *)
      let topo2 = scale_caps 2.0 topo in
      let fr2 = Fleischer.solve ~tol:fleischer_tol topo2.Topology.graph cs in
      record t ~inst ~cert:"meta_cap_scale"
        (Cert.agreement
           [
             ("base*2", 2.0 *. fr.Fleischer.lower, 2.0 *. fr.Fleischer.upper);
             ("caps*2", fst (bracket fr2), snd (bracket fr2));
           ])
    | 1 ->
      (* Node ids are names: relabeling must not move the bracket. *)
      let topo2, tm2 = rotate topo tm in
      let fr2 =
        Fleischer.solve ~tol:fleischer_tol topo2.Topology.graph
          (Tm.commodities tm2)
      in
      record t ~inst ~cert:"meta_relabel"
        (Cert.agreement
           [ ("base", fr.Fleischer.lower, fr.Fleischer.upper);
             ("relabeled", fst (bracket fr2), snd (bracket fr2))
           ])
    | _ ->
      (* Doubling every demand halves the concurrent throughput. *)
      let fr2 =
        Fleischer.solve ~tol:fleischer_tol g (Tm.commodities (Tm.scale 2.0 tm))
      in
      record t ~inst ~cert:"meta_tm_scale"
        (Cert.agreement
           [
             ("base/2", fr.Fleischer.lower /. 2.0, fr.Fleischer.upper /. 2.0);
             ("tm*2", fst (bracket fr2), snd (bracket fr2));
           ]));

    (* Theorem 2 on every 5th instance (the a2a TM is quadratic). *)
    (if index mod 5 = 0 then
       let eps_n = Array.length (Topology.endpoint_nodes topo) in
       if eps_n >= 2 && eps_n <= 20 then begin
         let fa =
           Fleischer.solve ~tol:fleischer_tol g
             (Tm.commodities (Synthetic.all_to_all topo))
         in
         let fl =
           Fleischer.solve ~tol:fleischer_tol g
             (Tm.commodities (Synthetic.longest_matching topo))
         in
         record t ~inst ~cert:"theorem2"
           (Cert.theorem2 ~a2a:(bracket fa) ~lm:(bracket fl) ())
       end);

    record t ~inst ~cert:"no_crash" (Ok ())
  with exn ->
    record t ~inst ~cert:"no_crash"
      (Error (Printf.sprintf "uncaught exception: %s" (Printexc.to_string exn)))
