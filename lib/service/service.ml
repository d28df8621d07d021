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

(* A result with its bytes, [Json.to_string (Result.to_json r)],
   rendered once when the result is made or promoted from the store:
   every response serves these bytes, so a hit formats no float. *)
type entry = { r : Result.t; bytes : string }

let entry r = { r; bytes = Json.to_string (Result.to_json r) }

type t = {
  lru : entry Lru.t;
  store : Store.t option;
  lock : Mutex.t;
  access_log : Events.writer option;
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

type response = {
  hash : string;
  cached : bool;
  result : Result.t;
  result_bytes : string;
}

let respond ~hash ~cached e =
  { hash; cached; result = e.r; result_bytes = e.bytes }

let with_lock t f = Mutex.protect t.lock f

(* Both lookups and inserts run under the lock: OCaml 5 domains racing a
   Hashtbl corrupt it, and the experiment drivers call [handle] from
   parallel maps. *)
let cache_find_locked t hash =
  match Lru.find t.lru hash with
  | Some e -> Some e
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
          let e = entry r in
          Lru.add t.lru hash e;
          Some e
        | Error e ->
          Log.warn (fun m -> m "store entry %s unreadable: %s" hash e);
          None)))

(* The store keeps the parsed tree for [find], so it gets the tree,
   never the bytes: [Result.of_json] cannot read a [Json.Raw]. *)
let cache_insert_locked t hash e =
  if not (Result.is_error e.r) then begin
    let before = Lru.evictions t.lru in
    Lru.add t.lru hash e;
    Metrics.add m_evictions (Lru.evictions t.lru - before);
    match t.store with
    | Some st when not (Store.mem st hash) ->
      Store.append st hash (Result.to_json e.r)
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
   that could take the daemon down. The result comes back rendered. *)
let run_solve ~fault ?warm ~build ~hash (req : Request.t) =
  Metrics.incr m_solves;
  let t0 = Clock.now_ns () in
  let elapsed () = Clock.ns_to_ms (Clock.elapsed_ns t0) in
  let record_solve r =
    Metrics.observe_hdr h_solve r.Result.solve_ms;
    entry r
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
    if Option.is_some t.access_log then
      with_lock t (fun () ->
          log_access t ~hash ~solver:(Request.solver_name req.Request.solver)
            ~cached:resp.cached ~coalesced:false ~queue_ms:0.0 resp.result);
    resp
  in
  if Fault.active fault then
    (* Injected failures must neither read nor poison real results —
       nor the warm cache, which is deliberately not threaded here. *)
    finish (respond ~hash ~cached:false (run_solve ~fault ~build ~hash req))
  else
    match
      Trace.span ~args:(targs hash) "service.cache_lookup" (fun () ->
          with_lock t (fun () -> cache_find_locked t hash))
    with
    | Some e ->
      Metrics.incr m_hits;
      finish (respond ~hash ~cached:true e)
    | None ->
      Metrics.incr m_misses;
      let e = run_solve ~fault:Fault.none ?warm ~build ~hash req in
      with_lock t (fun () -> cache_insert_locked t hash e);
      finish (respond ~hash ~cached:false e)

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
  Metrics.set g_queue (float_of_int (Array.length to_solve));
  let solved =
    Fun.protect
      ~finally:(fun () -> Metrics.set g_queue 0.0)
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
        | Some e -> respond ~hash:h ~cached:false e
        | None -> (
          match cached.(canon) with
          | Some e -> respond ~hash:h ~cached:true e
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

let response_json { hash; cached; result_bytes; _ } =
  Json.Obj
    [
      ("hash", Json.String hash);
      ("cached", Json.Bool cached);
      ("result", Json.Raw result_bytes);
    ]

let error_json ?(code = "bad_request") msg =
  Json.Obj [ ("error", Json.String msg); ("code", Json.String code) ]

(* A hostile or buggy client must not be able to wedge the daemon with
   one unbounded line: past this cap the rest of the line is drained
   and the request rejected with a typed error. Generous enough for any
   real inline topology/TM payload. *)
let max_line_bytes = 4 * 1024 * 1024

module Framer = struct
  type frame = Line of string | Oversized
  type t = { max : int; buf : Buffer.t; mutable overlong : bool }

  let create ~max = { max; buf = Buffer.create 256; overlong = false }

  let reset fr =
    Buffer.reset fr.buf;
    fr.overlong <- false

  let rec feed fr b off len emit =
    let stop = off + len in
    let nl = ref off in
    while !nl < stop && Bytes.get b !nl <> '\n' do
      incr nl
    done;
    let piece = !nl - off in
    if fr.overlong then ()
    else if Buffer.length fr.buf + piece > fr.max then begin
      reset fr;
      fr.overlong <- true;
      emit Oversized
    end
    else Buffer.add_subbytes fr.buf b off piece;
    if !nl < stop then begin
      if fr.overlong then fr.overlong <- false
      else begin
        let line = Buffer.contents fr.buf in
        Buffer.clear fr.buf;
        emit (Line line)
      end;
      feed fr b (!nl + 1) (stop - !nl - 1) emit
    end

  (* EOF: like [input_line], a final unterminated line still counts. *)
  let finish fr emit =
    let line = if fr.overlong then "" else Buffer.contents fr.buf in
    reset fr;
    if line <> "" then emit (Line line)

  let input_all fr ic emit =
    let chunk = Bytes.create 65536 in
    let rec go () =
      match Stdlib.input ic chunk 0 (Bytes.length chunk) with
      | 0 -> finish fr emit
      | n ->
        feed fr chunk 0 n emit;
        go ()
    in
    go ()
end

(* Every front end rejects a request here, so this is the one place
   that counts rejections in [service.errors]. *)
let reject msg =
  Metrics.incr m_errors;
  Some (Error (error_json msg))

let intake = function
  | Framer.Oversized ->
    reject (Printf.sprintf "request line exceeds %d bytes" max_line_bytes)
  | Framer.Line line -> (
    let line = String.trim line in
    if line = "" || line.[0] = '#' then None
    else
      match Trace.span "service.intake" (fun () -> Request.of_line line) with
      | Ok req -> Some (Ok req)
      | Error msg -> reject msg)

let serve ?(ic = stdin) ?(oc = stdout) t =
  let respond doc args =
    Trace.span ~args "service.render" (fun () ->
        output_string oc (Json.to_string doc);
        output_char oc '\n';
        flush oc)
  in
  Framer.input_all (Framer.create ~max:max_line_bytes) ic (fun frame ->
      match intake frame with
      | None -> ()
      | Some (Error doc) -> respond doc []
      | Some (Ok req) ->
        let resp = handle t req in
        respond (response_json resp) (targs resp.hash))

let batch_lines t frames =
  let parsed = List.filter_map intake frames in
  let reqs = List.filter_map Stdlib.Result.to_option parsed in
  snd
    (List.fold_left_map
       (fun responses p ->
         match (p, responses) with
         | Error doc, _ -> (responses, doc)
         | Ok _, r :: rest -> (rest, response_json r)
         | Ok _, [] -> assert false)
       (handle_batch t reqs) parsed)
