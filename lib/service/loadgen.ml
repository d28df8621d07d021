(* Seeded service-tier load generator. See loadgen.mli.

   The pool holds small instances only (4-20 switches): the point is to
   measure the service tier — cache lookups, coalescing, queueing, the
   solve dispatch — against a realistic hot/cold request skew, not to
   burn minutes in the solvers. Zipf sampling over a seed-shuffled pool
   makes a few entries hot (cache hits dominate, as they would for a
   popular topology) while the tail stays cold. *)

module Json = Tb_obs.Json
module Clock = Tb_obs.Clock
module Hdr = Tb_obs.Hdr
module Rng = Tb_prelude.Rng
module Catalog = Tb_topo.Catalog

type config = {
  requests : int;
  seed : int;
  batch : int;
  cache_capacity : int;
  zipf_s : float;
}

let default =
  { requests = 2000; seed = 42; batch = 1; cache_capacity = 256; zipf_s = 1.2 }

(* ---- The distinct request pool. ---- *)

let families = [ "hypercube:2"; "hypercube:3"; "fattree:4" ]

let spec_of s =
  match Catalog.spec_of_string s with
  | Ok sp -> sp
  | Error e -> failwith ("loadgen pool: " ^ e)

let pool ~seed =
  let reqs = ref [] in
  let add ?solver ~tm ~tm_seed fam =
    reqs :=
      Request.make ?solver ~seed:tm_seed
        ~topo:(Request.Spec (spec_of fam))
        ~tm:(Request.Named tm) ()
      :: !reqs
  in
  List.iter
    (fun fam ->
      (* Deterministic TMs once per family; the seeded random-matching
         TM under several seeds widens the cold tail. *)
      add ~tm:"a2a" ~tm_seed:seed fam;
      add ~tm:"lm" ~tm_seed:seed fam;
      for k = 0 to 3 do
        add ~tm:"rm1" ~tm_seed:(seed + k) fam
      done;
      (* A bounds-only variant: distinct hash, much cheaper solve. *)
      add ~solver:Request.Cut_bound ~tm:"a2a" ~tm_seed:seed fam)
    families;
  Array.of_list (List.rev !reqs)

(* ---- Zipf-skewed replay sequence. ---- *)

let mix cfg =
  let p = pool ~seed:cfg.seed in
  let rng = Rng.make cfg.seed in
  (* Which pool entries are hot is itself seed-dependent. *)
  Rng.shuffle_in_place rng p;
  let n = Array.length p in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) cfg.zipf_s);
    cdf.(r) <- !acc
  done;
  let total = !acc in
  let draw () =
    let u = Rng.float rng total in
    (* n is tiny (tens); a linear scan beats being clever. *)
    let rec find r = if r >= n - 1 || u <= cdf.(r) then r else find (r + 1) in
    p.(find 0)
  in
  Array.init cfg.requests (fun _ -> draw ())

(* ---- Replay. ---- *)

type outcome = {
  o_requests : int;
  distinct : int;
  duration_s : float;
  rps : float;
  hit_rate : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  solves : int;
  errors : int;
}

let run ?access_log cfg =
  let reqs = mix cfg in
  let distinct =
    let tbl = Hashtbl.create 64 in
    Array.iter (fun r -> Hashtbl.replace tbl (Request.hash r) ()) reqs;
    Hashtbl.length tbl
  in
  let svc = Service.create ~capacity:cfg.cache_capacity ?access_log () in
  let lat = Hdr.create () in
  let cached = ref 0 and errors = ref 0 in
  let note (resp : Service.response) =
    if resp.Service.cached then incr cached;
    if Result.is_error resp.Service.result then incr errors
  in
  let t0 = Clock.now_ns () in
  if cfg.batch <= 1 then
    Array.iter
      (fun req ->
        let r0 = Clock.now_ns () in
        let resp = Service.handle svc req in
        Hdr.record lat (Clock.ns_to_ms (Clock.elapsed_ns r0));
        note resp)
      reqs
  else begin
    let n = Array.length reqs in
    let i = ref 0 in
    while !i < n do
      let k = min cfg.batch (n - !i) in
      let chunk = Array.to_list (Array.sub reqs !i k) in
      let c0 = Clock.now_ns () in
      let resps = Service.handle_batch svc chunk in
      let per_req = Clock.ns_to_ms (Clock.elapsed_ns c0) /. float_of_int k in
      List.iter
        (fun resp ->
          Hdr.record lat per_req;
          note resp)
        resps;
      i := !i + k
    done
  end;
  let duration_s = Clock.ns_to_ms (Clock.elapsed_ns t0) /. 1e3 in
  let n = Array.length reqs in
  {
    o_requests = n;
    distinct;
    duration_s;
    rps = (if duration_s > 0.0 then float_of_int n /. duration_s else 0.0);
    hit_rate = (if n = 0 then 0.0 else float_of_int !cached /. float_of_int n);
    p50_ms = Hdr.quantile lat 0.5;
    p90_ms = Hdr.quantile lat 0.9;
    p99_ms = Hdr.quantile lat 0.99;
    max_ms = Hdr.max_value lat;
    solves = n - !cached;
    errors = !errors;
  }

(* ---- Pool replay under chaos. ---- *)

type pool_config = {
  workers : int;
  max_queue : int;
  wall_ms : float;
  chaos : Tb_harness.Fault.t;
  store_dir : string option;
}

let default_pool =
  {
    workers = 4;
    max_queue = 64;
    wall_ms = 30_000.0;
    chaos = Tb_harness.Fault.none;
    store_dir = None;
  }

type pool_outcome = {
  p_base : outcome;
  p_workers : int;
  p_restarts : int;
  p_retries : int;  (** supervisor re-dispatches survived by requests *)
  p_rejected : int;  (** typed [overloaded] rejections (client resubmitted) *)
  p_mismatches : int;  (** responses differing from the fault-free oracle *)
  p_lost : int;  (** accepted but never answered — must be 0 *)
}

(* Replay the same mix through a supervised pool, with every response
   checked against a fault-free oracle: each distinct request is solved
   once in-process (chaos off) and the pool's answers must render the
   same canonical bytes ({!Result.canonical} — wall-clock [solve_ms] is the
   only nondeterministic field). Overload rejections are typed, so the
   client loop resubmits instead of timing out. *)
let run_pool ?(pool_cfg = default_pool) cfg =
  let reqs = mix cfg in
  let n = Array.length reqs in
  let distinct_tbl = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace distinct_tbl (Request.hash r) r) reqs;
  let distinct = Hashtbl.length distinct_tbl in
  (* The oracle. *)
  let oracle = Hashtbl.create 64 in
  let osvc = Service.create ~capacity:(max distinct cfg.cache_capacity) () in
  Hashtbl.iter
    (fun hash req ->
      let resp = Service.handle osvc req in
      Hashtbl.replace oracle hash
        (Json.to_string (Result.to_json (Result.canonical resp.Service.result))))
    distinct_tbl;
  (* The pool under test. *)
  let pool =
    Pool.create
      ~config:
        {
          Pool.default_config with
          workers = pool_cfg.workers;
          max_queue = pool_cfg.max_queue;
          wall_ms = pool_cfg.wall_ms;
          cache_capacity = cfg.cache_capacity;
          chaos = pool_cfg.chaos;
          seed = cfg.seed;
          store_dir = pool_cfg.store_dir;
          backoff_base_ms = 10.0;
          backoff_max_ms = 500.0;
          (* The acceptance gate is "zero incorrect responses", so the
             retry budget must outlast any plausible streak of chaos
             draws against one request (9 consecutive faulted
             dispatches at p ~ 0.1 is a ~1e-9 event). *)
          max_retries = 8;
        }
      ()
  in
  let lat = Hdr.create () in
  let cached = ref 0 and errors = ref 0 in
  let rejected = ref 0 and mismatches = ref 0 in
  let retries = ref 0 and completed = ref 0 in
  let note (c : Pool.completion) =
    incr completed;
    retries := !retries + c.Pool.c_retries;
    Hdr.record lat c.Pool.c_latency_ms;
    if c.Pool.c_cached then incr cached;
    if Result.is_error c.Pool.c_result then incr errors;
    let got =
      Json.to_string (Result.to_json (Result.canonical c.Pool.c_result))
    in
    match Hashtbl.find_opt oracle c.Pool.c_hash with
    | Some want when want = got -> ()
    | _ -> incr mismatches
  in
  let drain_one () =
    match Pool.next_completion ~timeout_ms:60_000.0 pool with
    | Some c -> note c
    | None -> ()
  in
  let t0 = Clock.now_ns () in
  Array.iteri
    (fun i req ->
      (* A handful of synthetic clients exercises the fair dequeue. *)
      let client = Printf.sprintf "client-%d" (i mod 4) in
      let rec admit () =
        match Pool.submit ~client pool req with
        | Ok _ -> ()
        | Error Pool.Overloaded ->
          (* Backpressure observed as a typed rejection: make room by
             consuming a completion, then resubmit. *)
          incr rejected;
          drain_one ();
          admit ()
        | Error Pool.Draining -> ()
      in
      admit ();
      (* Opportunistically collect finished work without blocking. *)
      let rec sweep () =
        match Pool.next_completion ~timeout_ms:0.0 pool with
        | Some c ->
          note c;
          sweep ()
        | None -> ()
      in
      sweep ())
    reqs;
  while Pool.pending_count pool > 0 do
    drain_one ()
  done;
  let rec final_sweep () =
    match Pool.next_completion ~timeout_ms:0.0 pool with
    | Some c ->
      note c;
      final_sweep ()
    | None -> ()
  in
  final_sweep ();
  let duration_s = Clock.ns_to_ms (Clock.elapsed_ns t0) /. 1e3 in
  let restarts = Pool.restarts pool in
  Pool.drain pool;
  {
    p_base =
      {
        o_requests = n;
        distinct;
        duration_s;
        rps = (if duration_s > 0.0 then float_of_int n /. duration_s else 0.0);
        hit_rate =
          (if n = 0 then 0.0 else float_of_int !cached /. float_of_int n);
        p50_ms = Hdr.quantile lat 0.5;
        p90_ms = Hdr.quantile lat 0.9;
        p99_ms = Hdr.quantile lat 0.99;
        max_ms = Hdr.max_value lat;
        solves = n - !cached;
        errors = !errors;
      };
    p_workers = pool_cfg.workers;
    p_restarts = restarts;
    p_retries = !retries;
    p_rejected = !rejected;
    p_mismatches = !mismatches;
    p_lost = n - !completed;
  }

(* ---- Reporting. ---- *)

let outcome_json cfg o =
  Json.Obj
    [
      ("schema", Json.String "topobench-service-bench-v1");
      ("seed", Json.Int cfg.seed);
      ("requests", Json.Int o.o_requests);
      ("distinct", Json.Int o.distinct);
      ("batch", Json.Int cfg.batch);
      ("duration_s", Json.Float o.duration_s);
      ("rps", Json.Float o.rps);
      ("hit_rate", Json.Float o.hit_rate);
      ("p50_ms", Json.Float o.p50_ms);
      ("p90_ms", Json.Float o.p90_ms);
      ("p99_ms", Json.Float o.p99_ms);
      ("max_ms", Json.Float o.max_ms);
      ("solves", Json.Int o.solves);
      ("errors", Json.Int o.errors);
    ]

(* The v1 schema document plus a "pool" object carrying the
   fault-tolerance verdict; readers of the base schema keys are
   unaffected. *)
let pool_outcome_json cfg pool_cfg po =
  let chaos_counter name =
    match Tb_obs.Metrics.find_counter ("service.pool.chaos." ^ name) with
    | Some c -> Tb_obs.Metrics.count c
    | None -> 0
  in
  match outcome_json cfg po.p_base with
  | Json.Obj fields ->
    Json.Obj
      (fields
      @ [
          ( "pool",
            Json.Obj
              [
                ("workers", Json.Int po.p_workers);
                ("max_queue", Json.Int pool_cfg.max_queue);
                ("chaos_active", Json.Bool (Tb_harness.Fault.active pool_cfg.chaos));
                ("restarts", Json.Int po.p_restarts);
                ("retries", Json.Int po.p_retries);
                ("rejected", Json.Int po.p_rejected);
                ("mismatches", Json.Int po.p_mismatches);
                ("lost", Json.Int po.p_lost);
                ("chaos_kills", Json.Int (chaos_counter "kills"));
                ("chaos_stalls", Json.Int (chaos_counter "stalls"));
                ("chaos_truncates", Json.Int (chaos_counter "truncates"));
              ] );
        ])
  | other -> other
