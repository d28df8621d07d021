(* What a workload hands the runner: per-seed set-up that yields cycles
   of ops, each op a timed call into the program that returns its
   bracket plus untimed checks. *)

module Graph = Tb_graph.Graph
module Cert = Tb_cert.Cert
module S = Tb_service

type outcome = {
  key : string;  (** golden key: a digest of the op's canonical input *)
  lower : float;
  upper : float;
  solved : bool;  (** computed by this op, not served from a cache tier *)
  rung : string;  (** {!Tb_harness.Solve} rung, [""] outside that chain *)
  error : string option;
}

(** A shortest-path tree replay: the graph, sources and arc lengths of
    an op's solve, re-run through [Tb_graph.Sssp.run] in traced runs to
    price one tree. *)
type replay = { graph : Graph.t; sources : int array; lengths : Graph.floats }

type result = {
  outcome : outcome;
  verify : unit -> (string * Cert.verdict) list;  (** run outside the timed region *)
  replay : (unit -> replay) option;
}

type op = Benchkit.Spans.t -> result

(** One cycle: fresh per-cycle state (a service, a store) with the ops
    bound to it, and the cleanup that releases that state. *)
type cycle = unit -> op array * (unit -> unit)

type t = {
  name : string;
  tail_q : float;  (** the percentile reported as [op_ms_tail] *)
  setup : spans:Benchkit.Spans.t -> seed:int -> tmp:string -> cycle array;
      (** topology construction runs inside [topo.build] spans *)
}

let build_topo spans f = Benchkit.Spans.record spans "topo.build" f

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))
let float_key x = Tb_obs.Json.to_string (Tb_obs.Json.Float x)
let no_cleanup () = ()

let ordered ~lower ~upper =
  ( "bounds_ordered",
    Cert.bounds_ordered ~lower ~value:(0.5 *. (lower +. upper)) ~upper () )

(* A certified FPTAS bracket that closed on its first attempt must meet
   the requested tolerance. *)
let within_tol ~tol ~lower ~upper =
  ( "gap_within_tol",
    if upper <= lower *. (1.0 +. tol) *. (1.0 +. 1e-9) then Ok ()
    else Error (Printf.sprintf "gap %g exceeds tol %g" ((upper /. lower) -. 1.0) tol) )

let of_response (resp : S.Service.response) =
  let r = resp.S.Service.result in
  {
    key = resp.S.Service.hash;
    lower = r.S.Result.lower;
    upper = r.S.Result.upper;
    solved = not resp.S.Service.cached;
    rung = r.S.Result.rung;
    error = r.S.Result.error;
  }

(* The checks every service result gets: ordered bounds, and the
   requested gap when the FPTAS rung closed on its first attempt. *)
let service_checks ~tol (r : S.Result.t) =
  ordered ~lower:r.S.Result.lower ~upper:r.S.Result.upper
  ::
  (if r.S.Result.rung = "fptas" && r.S.Result.attempts = [] then
     [ within_tol ~tol ~lower:r.S.Result.lower ~upper:r.S.Result.upper ]
   else [])

let sources_of_commodities (cs : Tb_flow.Commodity.t array) =
  List.sort_uniq compare
    (Array.to_list (Array.map (fun c -> c.Tb_flow.Commodity.src) cs))
  |> Array.of_list

(* The cold-start lengths every Fleischer solve begins from (1/cap). *)
let cold_replay g cs =
  let caps = Graph.ba_arc_caps g in
  let lengths = Graph.make_floats (Graph.num_arcs g) in
  for a = 0 to Graph.num_arcs g - 1 do
    Bigarray.Array1.set lengths a (1.0 /. Bigarray.Array1.get caps a)
  done;
  { graph = g; sources = sources_of_commodities cs; lengths }

(* A fresh service whose store lives in [path]; the cleanup closes the
   store and removes its files. *)
let service ~capacity ~path =
  let svc = S.Service.create ~capacity ~store_path:path () in
  let cleanup () =
    Option.iter S.Store.close (S.Service.store svc);
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".lock" ]
  in
  (svc, cleanup)
