module Json = Tb_obs.Json
module Metrics = Tb_obs.Metrics
module Clock = Tb_obs.Clock
module Trace = Tb_obs.Trace
module Events = Tb_obs.Events
module Solve = Tb_harness.Solve
module Fault = Tb_harness.Fault
module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm

let src = Logs.Src.create "tb.service" ~doc:"batching solve service"

module Log = (val Logs.src_log src : Logs.LOG)

let m_requests = Metrics.counter "service.requests"
let m_solves = Metrics.counter "service.solves"
let m_errors = Metrics.counter "service.errors"
let m_coalesced = Metrics.counter "service.coalesced"
let m_hits = Metrics.counter "service.cache.hits"
let m_misses = Metrics.counter "service.cache.misses"
let m_evictions = Metrics.counter "service.cache.evictions"
let g_queue = Metrics.gauge "service.queue_depth"

(* User-facing latency distributions go through the fixed-precision
   Hdr kind (~1% quantiles), not the factor-of-2 log histograms. *)
let h_latency = Metrics.hdr "service.latency_ms"
let h_solve = Metrics.hdr "service.solve_ms"
let h_queue_wait = Metrics.hdr "service.queue_ms"
let h_coalesce_wait = Metrics.hdr "service.coalesce_wait_ms"

type t = {
  lru : Result.t Lru.t;
  store : Store.t option;
  lock : Mutex.t;
  mutable access_log : Events.writer option;
}

let create ?(capacity = 256) ?store_path ?access_log () =
  {
    lru = Lru.create ~capacity;
    store = Option.map (fun path -> Store.open_ ~path) store_path;
    lock = Mutex.create ();
    access_log;
  }

let store t = t.store
let access_log t = t.access_log
let set_access_log t w = t.access_log <- w

(* Per-request span correlation: every lifecycle span of one request
   carries its hash, so a Chrome trace of the daemon can be filtered to
   one request's full path. *)
let targs hash = [ ("hash", Json.String hash) ]

(* One access-log record per request. [queue_ms] is the wait between
   batch intake and solve start (0 outside a batch); a coalesced
   duplicate replays its canonical's result. Callers serialize writes
   with the service lock. *)
let log_access t ~hash ~solver ~cached ~coalesced ~queue_ms
    (r : Result.t) =
  match t.access_log with
  | None -> ()
  | Some w ->
    Events.write w
      [
        ("ts_ms", Json.Float (Clock.since_start_us () /. 1000.0));
        ("hash", Json.String hash);
        ("solver", Json.String solver);
        ("rung", Json.String r.Result.rung);
        ("cached", Json.Bool cached);
        ("coalesced", Json.Bool coalesced);
        ("queue_ms", Json.Float queue_ms);
        ("solve_ms", Json.Float r.Result.solve_ms);
        ( "error",
          match r.Result.error with
          | Some e -> Json.String e
          | None -> Json.Null );
      ]

type response = { hash : string; cached : bool; result : Result.t }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Both lookups and inserts run under the lock: OCaml 5 domains racing a
   Hashtbl corrupt it, and the experiment drivers call [handle] from
   parallel maps. *)
let cache_find_locked t hash =
  match Lru.find t.lru hash with
  | Some r -> Some r
  | None -> (
    match t.store with
    | None -> None
    | Some st -> (
      match Store.find st hash with
      | None -> None
      | Some j -> (
        match Result.of_json j with
        | Ok r ->
          (* Promote the disk hit into the memory tier. *)
          Lru.add t.lru hash r;
          Some r
        | Error e ->
          Log.warn (fun m -> m "store entry %s unreadable: %s" hash e);
          None)))

let cache_insert_locked t hash r =
  if not (Result.is_error r) then begin
    let before = Lru.evictions t.lru in
    Lru.add t.lru hash r;
    Metrics.add m_evictions (Lru.evictions t.lru - before);
    match t.store with
    | Some st when not (Store.mem st hash) ->
      Store.append st hash (Result.to_json r)
    | _ -> ()
  end

(* ---- Solving. ---- *)

let describe_exn = function
  | Tb_topo.Io.Parse_error { file; line; msg } ->
    Tb_topo.Io.error_message ~file ~line ~msg
  | Tb_tm.Io.Parse_error { file; line; msg } ->
    Tb_tm.Io.error_message ~file ~line ~msg
  | Failure msg | Invalid_argument msg -> msg
  | Solve.Exhausted _ -> "all solver rungs exhausted"
  | e -> Printexc.to_string e

let policy_of (req : Request.t) =
  Solve.policy_of ~eps:req.Request.eps ~tol:req.Request.tol
    ~budget_ms:req.Request.budget_ms
    (match req.Request.solver with
    | Request.Auto -> None
    | Request.Exact_lp -> Some Solve.Exact_lp
    | Request.Fptas -> Some Solve.Fptas
    | Request.Cut_bound -> Some Solve.Cut_bound)

(* One solve, fault-isolated: whatever goes wrong — a bad inline
   instance, infeasible parameters, an exhausted custom chain, an
   injected crash — comes back as an error result, never an exception
   that could take the daemon down. *)
let run_solve ~fault ?warm ~build ~hash (req : Request.t) =
  Metrics.incr m_solves;
  let t0 = Clock.now_ns () in
  let elapsed () = Clock.ns_to_ms (Clock.elapsed_ns t0) in
  let record_solve r =
    Metrics.observe_hdr h_solve r.Result.solve_ms;
    r
  in
  try
    let topo, tm = Trace.span ~args:(targs hash) "service.build" build in
    (* The chain certifies a warm bracket before accepting it. *)
    let outcome =
      Trace.span ~args:(targs hash) "service.solve" (fun () ->
          Solve.throughput ~policy:(policy_of req) ~fault ?warm topo tm)
    in
    record_solve
      (Result.of_outcome ~solve_ms:(elapsed ())
         ~topo_label:(Topology.label topo) ~tm_label:(Tm.label tm)
         ~flows:(Tm.num_flows tm) outcome)
  with e ->
    Metrics.incr m_errors;
    Log.warn (fun m -> m "solve failed: %s" (describe_exn e));
    record_solve (Result.failed ~solve_ms:(elapsed ()) (describe_exn e))

let handle ?(fault = Fault.none) ?prebuilt ?warm t req =
  Metrics.incr m_requests;
  let t0 = Clock.now_ns () in
  let hash = Request.hash req in
  Trace.span ~args:(targs hash) "service.request" @@ fun () ->
  let build () =
    match prebuilt with Some x -> x | None -> Request.build req
  in
  let finish resp =
    Metrics.observe_hdr h_latency (Clock.ns_to_ms (Clock.elapsed_ns t0));
    with_lock t (fun () ->
        log_access t ~hash ~solver:(Request.solver_name req.Request.solver)
          ~cached:resp.cached ~coalesced:false ~queue_ms:0.0 resp.result);
    resp
  in
  if Fault.active fault then
    (* Injected failures must neither read nor poison real results —
       nor the warm cache, which is deliberately not threaded here. *)
    finish { hash; cached = false; result = run_solve ~fault ~build ~hash req }
  else
    match
      Trace.span ~args:(targs hash) "service.cache_lookup" (fun () ->
          with_lock t (fun () -> cache_find_locked t hash))
    with
    | Some r ->
      Metrics.incr m_hits;
      finish { hash; cached = true; result = r }
    | None ->
      Metrics.incr m_misses;
      let r = run_solve ~fault:Fault.none ?warm ~build ~hash req in
      with_lock t (fun () -> cache_insert_locked t hash r);
      finish { hash; cached = false; result = r }

(* ---- Batching. ---- *)

let handle_batch t reqs =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  Metrics.add m_requests n;
  let bt0 = Clock.now_ns () in
  let batch_elapsed_ms () = Clock.ns_to_ms (Clock.elapsed_ns bt0) in
  Trace.span ~args:[ ("requests", Json.Int n) ] "service.batch" @@ fun () ->
  let hashes = Array.map Request.hash reqs in
  (* Coalesce duplicate hashes: the first occurrence is the canonical
     slot; later ones just read its response. *)
  let slot = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i h ->
      if Hashtbl.mem slot h then Metrics.incr m_coalesced
      else Hashtbl.add slot h i)
    hashes;
  let is_canonical i = Hashtbl.find slot hashes.(i) = i in
  (* Resolve every unique hash against the cache under one lock. *)
  let cached = Array.make n None in
  with_lock t (fun () ->
      Array.iteri
        (fun i h ->
          if is_canonical i then cached.(i) <- cache_find_locked t h)
        hashes);
  let to_solve = ref [] in
  let hits = ref 0 in
  Array.iteri
    (fun i _ ->
      if is_canonical i then
        if cached.(i) = None then to_solve := i :: !to_solve else incr hits)
    hashes;
  let to_solve = Array.of_list (List.rev !to_solve) in
  Metrics.add m_hits !hits;
  Metrics.add m_misses (Array.length to_solve);
  (* Distinct requests over the same topology share one immutable graph
     build: the solvers only read it, so one CSR build serves every
     commodity set in the batch. *)
  let topo_tbl = Hashtbl.create 8 in
  Array.iter
    (fun i ->
      let key = Request.topo_key reqs.(i) in
      if not (Hashtbl.mem topo_tbl key) then
        Hashtbl.add topo_tbl key
          (try Ok (Request.build_topology reqs.(i).Request.topo)
           with e -> Error e))
    to_solve;
  (* Queue wait: how long a miss sat in the batch before a domain
     picked it up (distinct slots, so plain writes are safe). *)
  let queue_ms = Array.make n 0.0 in
  let solve_one i =
    let req = reqs.(i) in
    let q = batch_elapsed_ms () in
    queue_ms.(i) <- q;
    Metrics.observe_hdr h_queue_wait q;
    let build () =
      match Hashtbl.find topo_tbl (Request.topo_key req) with
      | Ok topo -> (topo, Request.build_tm req topo)
      | Error e -> raise e
    in
    run_solve ~fault:Fault.none ~build ~hash:hashes.(i) req
  in
  (* The batch fan-out owns the cores; the solvers' inner gated maps go
     sequential for the duration so the domains are not oversubscribed
     (same discipline as the experiment drivers). *)
  Metrics.set g_queue (float_of_int (Array.length to_solve));
  let was_enabled = !Tb_prelude.Parallel.enabled in
  Tb_prelude.Parallel.enabled := false;
  let solved =
    Fun.protect
      ~finally:(fun () ->
        Tb_prelude.Parallel.enabled := was_enabled;
        Metrics.set g_queue 0.0)
      (fun () -> Tb_prelude.Parallel.force_map_array solve_one to_solve)
  in
  with_lock t (fun () ->
      Array.iteri
        (fun k i -> cache_insert_locked t hashes.(i) solved.(k))
        to_solve);
  (* Assemble responses in request order. *)
  let fresh = Hashtbl.create (2 * Array.length to_solve) in
  Array.iteri (fun k i -> Hashtbl.replace fresh hashes.(i) solved.(k)) to_solve;
  let responses =
    Array.map
      (fun h ->
        let canon = Hashtbl.find slot h in
        match Hashtbl.find_opt fresh h with
        | Some r -> { hash = h; cached = false; result = r }
        | None -> (
          match cached.(canon) with
          | Some r -> { hash = h; cached = true; result = r }
          | None -> assert false))
      hashes
  in
  (* Access-log every request. A coalesced duplicate (non-canonical
     slot) waited for its canonical's result; its wait is charged as
     the batch elapsed time at assembly. *)
  with_lock t (fun () ->
      Array.iteri
        (fun i resp ->
          let canon = Hashtbl.find slot hashes.(i) in
          let coalesced = canon <> i in
          if coalesced then
            Metrics.observe_hdr h_coalesce_wait (batch_elapsed_ms ());
          let q = if Hashtbl.mem fresh hashes.(i) then queue_ms.(canon) else 0.0 in
          log_access t ~hash:hashes.(i)
            ~solver:(Request.solver_name reqs.(i).Request.solver)
            ~cached:resp.cached ~coalesced ~queue_ms:q resp.result)
        responses);
  Array.to_list responses

(* ---- Wire protocol. ---- *)

let response_json { hash; cached; result } =
  Json.Obj
    [
      ("hash", Json.String hash);
      ("cached", Json.Bool cached);
      ("result", Result.to_json result);
    ]

let error_json ?(code = "bad_request") msg =
  Json.Obj [ ("error", Json.String msg); ("code", Json.String code) ]

(* A hostile or buggy client must not be able to wedge the daemon with
   one unbounded line: past this cap the rest of the line is drained
   and the request rejected with a typed error. Generous enough for any
   real inline topology/TM payload. *)
let max_line_bytes = 4 * 1024 * 1024

type line = Line of string | Oversized | Eof

(* [input_line] with a byte cap. Mirrors [input_line]'s EOF behavior:
   a final unterminated line still comes back as [Line]. *)
let input_line_capped ic ~max =
  let buf = Buffer.create 256 in
  let rec drain () =
    match input_char ic with
    | exception End_of_file -> ()
    | '\n' -> ()
    | _ -> drain ()
  in
  let rec go () =
    match input_char ic with
    | exception End_of_file ->
      if Buffer.length buf = 0 then Eof else Line (Buffer.contents buf)
    | '\n' -> Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= max then begin
        drain ();
        Oversized
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
  in
  go ()

let serve ?(ic = stdin) ?(oc = stdout) t =
  let respond doc args =
    Trace.span ~args "service.render" (fun () ->
        output_string oc (Json.to_string doc);
        output_char oc '\n';
        flush oc)
  in
  let rec loop () =
    match input_line_capped ic ~max:max_line_bytes with
    | Eof -> ()
    | Oversized ->
      Metrics.incr m_errors;
      respond
        (error_json
           (Printf.sprintf "request line exceeds %d bytes" max_line_bytes))
        [];
      loop ()
    | Line line ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then loop ()
      else begin
        let parsed =
          Trace.span "service.intake" (fun () -> Request.of_line trimmed)
        in
        let doc, args =
          match parsed with
          | Error e ->
            Metrics.incr m_errors;
            (error_json e, [])
          | Ok req ->
            let resp = handle t req in
            (response_json resp, targs resp.hash)
        in
        respond doc args;
        loop ()
      end
  in
  loop ()

let batch_lines t lines =
  let lines =
    List.filter
      (fun l ->
        let l = String.trim l in
        l <> "" && l.[0] <> '#')
      lines
  in
  let parsed = List.map (fun l -> Request.of_line (String.trim l)) lines in
  let reqs = List.filter_map (function Ok r -> Some r | Error _ -> None) parsed in
  let responses = ref (handle_batch t reqs) in
  List.map
    (fun p ->
      match p with
      | Error e -> error_json e
      | Ok _ -> (
        match !responses with
        | r :: rest ->
          responses := rest;
          response_json r
        | [] -> assert false))
    parsed
