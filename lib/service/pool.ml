(* Supervised sharded worker pool. See pool.mli.

   Architecture: the supervisor forks N worker processes, each running
   the existing {!Service.serve} ndjson loop over its end of a
   socketpair, with its own cache and its own store segment (so every
   store file stays single-writer). The supervisor itself never solves:
   it is a single-threaded event loop (select over worker fds plus
   timer math) that shards requests by content hash, watches for
   worker death (SIGCHLD + EOF) and wedges (per-request wall deadline),
   restarts workers with exponential backoff + jitter behind a
   per-worker circuit breaker, and retries in-flight requests of a
   failed worker on a healthy one — safe because requests are
   content-hashed and solves deterministic, so a retry is
   bit-identical.

   Admission control is a bounded intake queue with per-client fair
   dequeue; over capacity the caller gets a typed [`Overloaded], never
   a silent timeout. Graceful drain stops intake, finishes everything
   queued and in flight, EOFs the workers (their serve loops return and
   they exit cleanly), reaps them, and merges store segments. *)

module Json = Tb_obs.Json
module Clock = Tb_obs.Clock
module Metrics = Tb_obs.Metrics
module Rng = Tb_prelude.Rng
module Fault = Tb_harness.Fault

let src = Logs.Src.create "tb.service.pool" ~doc:"supervised worker pool"

module Log = (val Logs.src_log src : Logs.LOG)

let m_requests = Metrics.counter "service.pool.requests"
let m_completed = Metrics.counter "service.pool.completed"
let m_rejected = Metrics.counter "service.pool.rejected"
let m_retries = Metrics.counter "service.pool.retries"
let m_restarts = Metrics.counter "service.pool.restarts"
let m_failures = Metrics.counter "service.pool.worker_failures"
let m_hangs = Metrics.counter "service.pool.hangs"
let m_exhausted = Metrics.counter "service.pool.retries_exhausted"
let m_chaos_kills = Metrics.counter "service.pool.chaos.kills"
let m_chaos_stalls = Metrics.counter "service.pool.chaos.stalls"
let m_chaos_truncates = Metrics.counter "service.pool.chaos.truncates"
let g_queue = Metrics.gauge "service.pool.queue_depth"
let g_live = Metrics.gauge "service.pool.workers_live"
let g_breaker_open = Metrics.gauge "service.pool.breakers_open"
let h_latency = Metrics.hdr "service.pool.latency_ms"
let h_drain = Metrics.hdr "service.pool.drain_ms"

let now_ms () = Clock.ns_to_ms (Clock.now_ns ())

(* ---- Restart backoff. ---- *)

module Backoff = struct
  (* attempt 1 -> base, 2 -> 2*base, ... capped at [max_ms], then
     stretched by up to [jitter] (uniform, from the pool's seeded rng)
     so a herd of failing workers doesn't restart in lockstep. *)
  let delay_ms ~base_ms ~max_ms ~jitter ~rng ~attempt =
    let attempt = max 1 attempt in
    let exp =
      if attempt >= 30 then max_ms
      else base_ms *. Float.of_int (1 lsl (attempt - 1))
    in
    let capped = Float.min max_ms exp in
    capped *. (1.0 +. Rng.float rng jitter)
end

(* ---- Per-worker circuit breaker. ---- *)

module Breaker = struct
  type state = Closed | Open | Half_open

  type t = {
    threshold : int;
    cooldown_ms : float;
    mutable failures : int; (* consecutive *)
    mutable opened_at : float; (* abs ms; meaningful when tripped *)
    mutable probing : bool; (* a half-open probe is in flight *)
  }

  let create ?(threshold = 3) ?(cooldown_ms = 1000.0) () =
    { threshold; cooldown_ms; failures = 0; opened_at = nan; probing = false }

  let state t ~now_ms =
    if t.failures < t.threshold then Closed
    else if now_ms -. t.opened_at < t.cooldown_ms then Open
    else Half_open

  (* May this worker be dispatched to right now? Closed: yes. Open:
     no. Half-open: one probe at a time — the probe's outcome decides
     whether the breaker closes or re-opens. *)
  let allows t ~now_ms =
    match state t ~now_ms with
    | Closed -> true
    | Open -> false
    | Half_open ->
      if t.probing then false
      else begin
        t.probing <- true;
        true
      end

  let record_success t =
    t.failures <- 0;
    t.probing <- false

  let record_failure t ~now_ms =
    t.failures <- t.failures + 1;
    t.probing <- false;
    if t.failures >= t.threshold then t.opened_at <- now_ms

  let consecutive_failures t = t.failures
end

(* ---- Per-client fair queue. ---- *)

module Fair_queue = struct
  (* Round-robin over clients, FIFO within a client: one chatty client
     cannot starve the others, and a single-client workload degrades to
     a plain FIFO. *)
  type 'a t = {
    by_client : (string, 'a Queue.t) Hashtbl.t;
    ring : string Queue.t; (* clients with pending work, rotation order *)
    mutable total : int;
  }

  let create () = { by_client = Hashtbl.create 8; ring = Queue.create (); total = 0 }

  let length t = t.total

  let push t ~client x =
    let q =
      match Hashtbl.find_opt t.by_client client with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add t.by_client client q;
        q
    in
    if Queue.is_empty q then Queue.push client t.ring;
    Queue.push x q;
    t.total <- t.total + 1

  let rec pop t =
    if Queue.is_empty t.ring then None
    else begin
      let client = Queue.pop t.ring in
      match Hashtbl.find_opt t.by_client client with
      | None -> pop t
      | Some q ->
        if Queue.is_empty q then pop t
        else begin
          let x = Queue.pop q in
          t.total <- t.total - 1;
          if not (Queue.is_empty q) then Queue.push client t.ring;
          Some x
        end
    end
end

(* ---- Configuration. ---- *)

type config = {
  workers : int;
  max_queue : int;
  wall_ms : float;
  max_retries : int;
  breaker_threshold : int;
  breaker_cooldown_ms : float;
  backoff_base_ms : float;
  backoff_max_ms : float;
  backoff_jitter : float;
  cache_capacity : int;
  store_dir : string option;
  access_log : string option;
  chaos : Fault.t;
  seed : int;
}

let default_config =
  {
    workers = 4;
    max_queue = 256;
    wall_ms = 60_000.0;
    max_retries = 3;
    breaker_threshold = 3;
    breaker_cooldown_ms = 1000.0;
    backoff_base_ms = 25.0;
    backoff_max_ms = 2000.0;
    backoff_jitter = 0.25;
    cache_capacity = 256;
    store_dir = None;
    access_log = None;
    chaos = Fault.none;
    seed = 42;
  }

(* ---- Supervisor state. ---- *)

type pending = {
  p_id : int;
  p_hash : string;
  p_line : string; (* the serialized request, ready for dispatch *)
  p_client : string;
  mutable p_tries : int; (* dispatches so far *)
  p_submit_ms : float;
  mutable p_truncate : bool; (* chaos: corrupt this response's bytes *)
}

type completion = {
  c_id : int;
  c_hash : string;
  c_client : string;
  c_cached : bool;
  c_retries : int; (* re-dispatches after worker failures *)
  c_latency_ms : float;
  c_result : Result.t;
}

type worker = {
  slot : int;
  queue : pending Fair_queue.t;
  breaker : Breaker.t;
  mutable pid : int; (* -1 = no process *)
  mutable fd : Unix.file_descr; (* supervisor side of the socketpair *)
  mutable rbuf : Buffer.t; (* partial response line *)
  mutable inflight : pending option;
  mutable dispatched_ms : float; (* when inflight was written *)
  mutable restart_at : float; (* abs ms; nan = no restart scheduled *)
  mutable restart_streak : int; (* failures since last success *)
  mutable restarts : int;
  mutable stopped : bool; (* we SIGSTOPped it (chaos) *)
}

type t = {
  cfg : config;
  rng : Rng.t; (* backoff jitter *)
  workers : worker array;
  completions : (int, completion) Hashtbl.t;
  mutable next_id : int;
  mutable draining : bool;
  mutable closed : bool;
  mutable sigchld_prev : Sys.signal_behavior option;
}

let queued_total t =
  Array.fold_left (fun acc w -> acc + Fair_queue.length w.queue) 0 t.workers

let inflight_total t =
  Array.fold_left
    (fun acc w -> acc + if w.inflight = None then 1 else 0)
    0 t.workers
  |> fun idle -> Array.length t.workers - idle

let live_workers t =
  Array.fold_left (fun acc w -> acc + if w.pid > 0 then 1 else 0) 0 t.workers

let update_gauges t =
  Metrics.set g_queue (float_of_int (queued_total t));
  Metrics.set g_live (float_of_int (live_workers t));
  let now = now_ms () in
  let open_count =
    Array.fold_left
      (fun acc w ->
        acc + match Breaker.state w.breaker ~now_ms:now with
              | Breaker.Open -> 1
              | _ -> 0)
      0 t.workers
  in
  Metrics.set g_breaker_open (float_of_int open_count)

(* ---- Worker lifecycle. ---- *)

let segment_path dir slot =
  Filename.concat dir (Printf.sprintf "segment-%d.ndjson" slot)

let merged_path dir = Filename.concat dir "merged.ndjson"

(* The worker half: close every supervisor-side fd (ours included) and
   every sibling's worker-side fd — a stray inherited descriptor would
   keep a sibling's socketpair open after the supervisor dies, and the
   sibling would never see EOF. Then run the plain serve loop until the
   socket closes. *)
let worker_main t ~slot ~(wfd : Unix.file_descr) =
  Array.iter
    (fun (w : worker) ->
      if w.fd <> wfd then (try Unix.close w.fd with Unix.Unix_error _ -> ()))
    t.workers;
  (* A terminal Ctrl-C goes to the whole process group; the supervisor
     coordinates shutdown, workers just follow their socket. *)
  (try Sys.set_signal Sys.sigint Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let ic = Unix.in_channel_of_descr wfd in
  let oc = Unix.out_channel_of_descr wfd in
  let store_path = Option.map (fun d -> segment_path d slot) t.cfg.store_dir in
  let access_log =
    Option.map
      (fun p -> Tb_obs.Events.open_ (Printf.sprintf "%s.worker-%d" p slot))
      t.cfg.access_log
  in
  let svc =
    Service.create ~capacity:t.cfg.cache_capacity ?store_path ?access_log ()
  in
  Service.serve ~ic ~oc svc;
  (* EOF: graceful drain, or the supervisor is gone. Flush state and
     exit cleanly — no zombie, no torn store line. *)
  (match Service.store svc with Some st -> Store.close st | None -> ());
  Option.iter Tb_obs.Events.close access_log;
  (try flush oc with Sys_error _ -> ());
  exit 0

let spawn_worker t (w : worker) =
  let sup_fd, wfd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  (* Flush before fork so buffered output is not emitted twice. *)
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try Unix.close sup_fd with Unix.Unix_error _ -> ());
    (try worker_main t ~slot:w.slot ~wfd
     with e ->
       Printf.eprintf "pool worker %d: %s\n%!" w.slot (Printexc.to_string e);
       exit 1)
  | pid ->
    Unix.close wfd;
    w.pid <- pid;
    w.fd <- sup_fd;
    Buffer.clear w.rbuf;
    w.inflight <- None;
    w.restart_at <- nan;
    w.stopped <- false;
    Log.info (fun m -> m "worker %d: pid %d up" w.slot pid)

let create ?(config = default_config) () =
  if config.workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  (* EPIPE (a write racing a worker death) must surface as a Unix
     error on the write, not kill the supervisor. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755)
    config.store_dir;
  let t =
    {
      cfg = config;
      rng = Rng.make config.seed;
      workers =
        Array.init config.workers (fun slot ->
            {
              slot;
              queue = Fair_queue.create ();
              breaker =
                Breaker.create ~threshold:config.breaker_threshold
                  ~cooldown_ms:config.breaker_cooldown_ms ();
              pid = -1;
              fd = Unix.stdin (* placeholder until spawn *);
              rbuf = Buffer.create 256;
              inflight = None;
              dispatched_ms = 0.0;
              restart_at = nan;
              restart_streak = 0;
              restarts = 0;
              stopped = false;
            });
      completions = Hashtbl.create 64;
      next_id = 0;
      draining = false;
      closed = false;
      sigchld_prev = None;
    }
  in
  (* SIGCHLD: the handler only needs to exist so a dying worker
     interrupts a pending select (EINTR) — the loop reaps with
     waitpid(WNOHANG) on every step. *)
  (try
     t.sigchld_prev <-
       Some (Sys.signal Sys.sigchld (Sys.Signal_handle (fun _ -> ())))
   with Invalid_argument _ | Sys_error _ -> ());
  Array.iter (fun w -> spawn_worker t w) t.workers;
  update_gauges t;
  t

let config t = t.cfg
let worker_pids t =
  Array.to_list
    (Array.map (fun w -> w.pid) t.workers)
  |> List.filter (fun p -> p > 0)

let restarts t = Array.fold_left (fun acc w -> acc + w.restarts) 0 t.workers

(* ---- Failure handling. ---- *)

(* Shard by the leading hex digits of the content hash: stable across
   runs, so a hash lands on the same slot (and its store segment) every
   time the pool has the same width. *)
let shard t hash =
  let n = Array.length t.workers in
  let prefix = String.sub hash 0 (min 7 (String.length hash)) in
  match int_of_string_opt ("0x" ^ prefix) with
  | Some v -> v mod n
  | None -> (Hashtbl.hash hash : int) mod n

(* Pick the dispatch slot for [hash]: the home shard if its breaker
   admits work, else the nearest healthy neighbor (stable probe order).
   With every breaker open the home shard keeps the request queued —
   it will move when something recovers. [avoid] excludes the worker
   that just failed the request. *)
let choose_slot ?(avoid = -1) t hash =
  let n = Array.length t.workers in
  let home = shard t hash in
  let now = now_ms () in
  let healthy slot =
    let w = t.workers.(slot) in
    slot <> avoid && Breaker.allows w.breaker ~now_ms:now
  in
  let rec probe k = if k >= n then home else
    let slot = (home + k) mod n in
    if healthy slot then slot else probe (k + 1)
  in
  probe 0

let enqueue t slot (p : pending) =
  Fair_queue.push t.workers.(slot).queue ~client:p.p_client p

let complete t (p : pending) ~cached ~result =
  let latency = now_ms () -. p.p_submit_ms in
  Metrics.incr m_completed;
  Metrics.observe_hdr h_latency latency;
  Hashtbl.replace t.completions p.p_id
    {
      c_id = p.p_id;
      c_hash = p.p_hash;
      c_client = p.p_client;
      c_cached = cached;
      c_retries = max 0 (p.p_tries - 1);
      c_latency_ms = latency;
      c_result = result;
    }

(* A worker failed (died, wedged past the wall deadline, or spoke a
   corrupt protocol). Charge the breaker, schedule a backoff restart,
   and either retry the in-flight request on another worker or — past
   the retry budget — complete it as a typed error. *)
let fail_worker t (w : worker) ~reason =
  let now = now_ms () in
  Metrics.incr m_failures;
  Log.warn (fun m -> m "worker %d: %s" w.slot reason);
  if w.pid > 0 then begin
    (* SIGKILL is idempotent and works on stopped processes too. *)
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    (try Unix.close w.fd with Unix.Unix_error _ -> ())
  end;
  w.pid <- -1;
  w.stopped <- false;
  Buffer.clear w.rbuf;
  Breaker.record_failure w.breaker ~now_ms:now;
  w.restart_streak <- w.restart_streak + 1;
  let delay =
    Backoff.delay_ms ~base_ms:t.cfg.backoff_base_ms
      ~max_ms:t.cfg.backoff_max_ms ~jitter:t.cfg.backoff_jitter ~rng:t.rng
      ~attempt:w.restart_streak
  in
  w.restart_at <- now +. delay;
  (match w.inflight with
  | None -> ()
  | Some p ->
    w.inflight <- None;
    if p.p_tries > t.cfg.max_retries then begin
      Metrics.incr m_exhausted;
      complete t p ~cached:false
        ~result:
          (Result.failed ~solve_ms:0.0
             (Printf.sprintf
                "worker failed %d time(s) on this request (last: %s)"
                p.p_tries reason))
    end
    else begin
      (* Retry on a healthy peer: deterministic solves over
         content-hashed requests make the redo bit-identical. *)
      Metrics.incr m_retries;
      p.p_truncate <- false;
      enqueue t (choose_slot ~avoid:w.slot t p.p_hash) p
    end);
  update_gauges t

(* ---- Dispatch and response plumbing. ---- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let dispatch t (w : worker) (p : pending) =
  p.p_tries <- p.p_tries + 1;
  w.inflight <- Some p;
  w.dispatched_ms <- now_ms ();
  match write_all w.fd (p.p_line ^ "\n") with
  | () -> (
    (* Chaos is injected from the supervisor at the dispatch boundary:
       the worker is mid-solve when the fault lands. *)
    match Fault.draw t.cfg.chaos with
    | Some Fault.Kill ->
      Metrics.incr m_chaos_kills;
      if w.pid > 0 then (
        try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
    | Some Fault.Stall ->
      Metrics.incr m_chaos_stalls;
      if w.pid > 0 then (
        try
          Unix.kill w.pid Sys.sigstop;
          w.stopped <- true
        with Unix.Unix_error _ -> ())
    | Some Fault.Truncate ->
      Metrics.incr m_chaos_truncates;
      p.p_truncate <- true
    | Some (Fault.Timeout | Fault.Nan | Fault.Exception) | None -> ())
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
    ->
    fail_worker t w ~reason:"died before accepting a request"

(* Fill every idle, live worker from its own queue. *)
let dispatch_ready t =
  Array.iter
    (fun w ->
      if w.pid > 0 && w.inflight = None then
        match Fair_queue.pop w.queue with
        | Some p -> dispatch t w p
        | None -> ())
    t.workers

(* Restart workers whose backoff has elapsed. Restarts are not gated by
   the breaker — a restarted worker sits idle until the breaker's
   half-open probe admits traffic, so restarting early costs nothing
   and restores capacity sooner. *)
let restart_due t =
  let now = now_ms () in
  Array.iter
    (fun w ->
      if w.pid <= 0 && Float.is_finite w.restart_at && w.restart_at <= now
      then begin
        w.restarts <- w.restarts + 1;
        Metrics.incr m_restarts;
        spawn_worker t w
      end)
    t.workers;
  update_gauges t

(* Wall-deadline scan: an in-flight request past its deadline means the
   worker is wedged (SIGSTOPped, livelocked, or stuck in a solve far
   past its budget) — kill it and let the retry path take over. *)
let check_deadlines t =
  let now = now_ms () in
  Array.iter
    (fun w ->
      match w.inflight with
      | Some _ when now -. w.dispatched_ms > t.cfg.wall_ms ->
        Metrics.incr m_hangs;
        fail_worker t w
          ~reason:
            (Printf.sprintf "hang: no response within %.0f ms" t.cfg.wall_ms)
      | _ -> ())
    t.workers

(* Reap every dead child and run its failure path. waitpid(WNOHANG)
   per live worker is cheap at pool widths and catches deaths even if
   the SIGCHLD wakeup was coalesced. *)
let reap t =
  Array.iter
    (fun w ->
      if w.pid > 0 then
        match Unix.waitpid [ Unix.WNOHANG ] w.pid with
        | 0, _ -> ()
        | _, status ->
          let reason =
            match status with
            | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
          in
          (* waitpid already consumed the pid: mark it gone so
             fail_worker doesn't kill/wait again. *)
          let fd = w.fd in
          w.pid <- -1;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          fail_worker t w ~reason
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          w.pid <- -1;
          fail_worker t w ~reason:"reaped elsewhere (ECHILD)")
    t.workers

(* Parse one worker response line and complete the matching in-flight
   request. A response that fails to parse — or arrives with no
   request outstanding — is a protocol failure: the worker is recycled
   and the request (if any) retried. *)
let handle_response t (w : worker) line =
  let line =
    match w.inflight with
    | Some p when p.p_truncate ->
      (* Chaos: deliver only half the bytes, as if the worker died
         mid-write. The parse below then takes the corrupt-protocol
         path. *)
      p.p_truncate <- false;
      String.sub line 0 (String.length line / 2)
    | _ -> line
  in
  match (w.inflight, Json.of_string line) with
  | Some p, Ok doc -> (
    let result =
      match Json.member "result" doc with
      | Some rj -> (
        match Result.of_json rj with
        | Ok r -> Some r
        | Error _ -> None)
      | None -> (
        (* A typed worker-side error line ({"error": ..}) is a real
           response: the request itself was bad, not the worker. *)
        match Json.member "error" doc with
        | Some (Json.String e) -> Some (Result.failed ~solve_ms:0.0 e)
        | _ -> None)
    in
    let hash_ok =
      match Json.member "hash" doc with
      | Some (Json.String h) -> h = p.p_hash
      | _ -> Json.member "error" doc <> None
    in
    match result with
    | Some r when hash_ok ->
      w.inflight <- None;
      w.restart_streak <- 0;
      Breaker.record_success w.breaker;
      let cached =
        match Json.member "cached" doc with
        | Some (Json.Bool b) -> b
        | _ -> false
      in
      complete t p ~cached ~result:r
    | _ -> fail_worker t w ~reason:"protocol: response for the wrong hash"
    )
  | Some _, Error e ->
    fail_worker t w ~reason:(Printf.sprintf "protocol: unparsable response (%s)" e)
  | None, _ -> fail_worker t w ~reason:"protocol: unsolicited response"

let on_readable t (w : worker) =
  let chunk = Bytes.create 65536 in
  match Unix.read w.fd chunk 0 (Bytes.length chunk) with
  | 0 ->
    (* EOF with the process possibly still technically alive (exiting):
       treat as death; reap will collect the corpse. *)
    fail_worker t w ~reason:"connection closed"
  | n ->
    Buffer.add_subbytes w.rbuf chunk 0 n;
    (* Extract complete lines; responses are one line each. *)
    let rec drain () =
      let s = Buffer.contents w.rbuf in
      match String.index_opt s '\n' with
      | None -> ()
      | Some i ->
        let line = String.sub s 0 i in
        Buffer.clear w.rbuf;
        Buffer.add_substring w.rbuf s (i + 1) (String.length s - i - 1);
        if String.trim line <> "" then handle_response t w line;
        if w.pid > 0 then drain ()
    in
    drain ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
    fail_worker t w ~reason:"connection reset"

(* ---- The event loop step. ---- *)

(* Next instant something is due: a scheduled restart or an in-flight
   wall deadline. *)
let next_timer_ms t =
  let acc = ref infinity in
  Array.iter
    (fun w ->
      if w.pid <= 0 && Float.is_finite w.restart_at then
        acc := Float.min !acc w.restart_at;
      match w.inflight with
      | Some _ -> acc := Float.min !acc (w.dispatched_ms +. t.cfg.wall_ms)
      | None -> ())
    t.workers;
  !acc

let step ?(timeout_ms = 50.0) t =
  reap t;
  restart_due t;
  check_deadlines t;
  dispatch_ready t;
  let fds =
    Array.to_list t.workers
    |> List.filter_map (fun w -> if w.pid > 0 then Some w.fd else None)
  in
  let now = now_ms () in
  let until_timer = Float.max 0.0 (next_timer_ms t -. now) in
  let timeout = Float.min timeout_ms until_timer in
  let timeout_s = Float.max 0.0 (timeout /. 1000.0) in
  if fds = [] then (if timeout_s > 0.0 then Unix.sleepf (Float.min 0.05 timeout_s))
  else begin
    match Unix.select fds [] [] timeout_s with
    | readable, _, _ ->
      List.iter
        (fun fd ->
          match
            Array.find_opt (fun w -> w.pid > 0 && w.fd = fd) t.workers
          with
          | Some w -> on_readable t w
          | None -> ())
        readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
      (* A worker died between the fd snapshot and select; the next
         reap pass cleans it up. *)
      ()
  end;
  (* Timers may have fired while we slept. *)
  reap t;
  restart_due t;
  check_deadlines t;
  dispatch_ready t;
  update_gauges t

(* ---- Public request plumbing. ---- *)

type submit_error = Overloaded | Draining

let submit ?(client = "default") t req =
  if t.closed then invalid_arg "Pool.submit: pool is shut down";
  if t.draining then Error Draining
  else if queued_total t >= t.cfg.max_queue then begin
    Metrics.incr m_rejected;
    Error Overloaded
  end
  else begin
    Metrics.incr m_requests;
    let hash = Request.hash req in
    let id = t.next_id in
    t.next_id <- id + 1;
    let p =
      {
        p_id = id;
        p_hash = hash;
        p_line = Json.to_string (Request.to_json req);
        p_client = client;
        p_tries = 0;
        p_submit_ms = now_ms ();
        p_truncate = false;
      }
    in
    enqueue t (choose_slot t hash) p;
    update_gauges t;
    Ok id
  end

let take_completion t =
  (* Any completed ticket, oldest id preferred for determinism. *)
  if Hashtbl.length t.completions = 0 then None
  else begin
    let best = ref None in
    Hashtbl.iter
      (fun id _ ->
        match !best with
        | Some b when b <= id -> ()
        | _ -> best := Some id)
      t.completions;
    match !best with
    | None -> None
    | Some id ->
      let c = Hashtbl.find t.completions id in
      Hashtbl.remove t.completions id;
      Some c
  end

let next_completion ?(timeout_ms = infinity) t =
  let deadline = now_ms () +. timeout_ms in
  let rec go () =
    match take_completion t with
    | Some c -> Some c
    | None ->
      if now_ms () >= deadline then None
      else if queued_total t = 0 && inflight_total t = 0 then None
      else begin
        step t;
        go ()
      end
  in
  go ()

let await t id =
  let rec go () =
    match Hashtbl.find_opt t.completions id with
    | Some c ->
      Hashtbl.remove t.completions id;
      c
    | None ->
      if queued_total t = 0 && inflight_total t = 0 then
        invalid_arg "Pool.await: unknown ticket";
      step t;
      go ()
  in
  go ()

let pending_count t = queued_total t + inflight_total t

(* ---- Drain and shutdown. ---- *)

let close_worker_fds t =
  Array.iter
    (fun w ->
      if w.pid > 0 then (
        try Unix.close w.fd with Unix.Unix_error _ -> ()))
    t.workers

let reap_all ?(grace_ms = 5000.0) t =
  let deadline = now_ms () +. grace_ms in
  Array.iter
    (fun w ->
      if w.pid > 0 then begin
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] w.pid with
          | 0, _ ->
            if now_ms () > deadline then begin
              (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
              (try ignore (Unix.waitpid [] w.pid)
               with Unix.Unix_error _ -> ())
            end
            else begin
              Unix.sleepf 0.005;
              wait ()
            end
          | _ -> ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        in
        wait ();
        w.pid <- -1
      end)
    t.workers

let restore_sigchld t =
  match t.sigchld_prev with
  | None -> ()
  | Some prev ->
    (try Sys.set_signal Sys.sigchld prev
     with Invalid_argument _ | Sys_error _ -> ());
    t.sigchld_prev <- None

let merge_segments t =
  match t.cfg.store_dir with
  | None -> None
  | Some dir ->
    let segments =
      List.init (Array.length t.workers) (fun slot -> segment_path dir slot)
      |> List.filter Sys.file_exists
    in
    if segments = [] then None
    else begin
      let into = merged_path dir in
      let n = Store.merge ~into segments in
      Log.info (fun m ->
          m "merged %d segment(s), %d entries -> %s" (List.length segments) n
            into);
      Some (into, n)
    end

let drain ?(grace_ms = 30_000.0) t =
  if not t.closed then begin
    let t0 = now_ms () in
    t.draining <- true;
    let deadline = t0 +. grace_ms in
    (* Finish everything accepted: queued and in flight. Workers are
       still being restarted as needed, so even a pool mid-crash-storm
       drains to completion. *)
    while pending_count t > 0 && now_ms () < deadline do
      step t
    done;
    (* Stop the remaining in-flight hard if the grace expired. *)
    if pending_count t > 0 then
      Array.iter
        (fun w ->
          match w.inflight with
          | Some _ -> fail_worker t w ~reason:"drain grace expired"
          | None -> ())
        t.workers;
    (* EOF the workers: their serve loops return, they flush their
       stores and exit 0; reap them all. *)
    close_worker_fds t;
    reap_all t;
    ignore (merge_segments t);
    restore_sigchld t;
    t.closed <- true;
    update_gauges t;
    Metrics.observe_hdr h_drain (now_ms () -. t0)
  end

let shutdown t =
  if not t.closed then begin
    t.draining <- true;
    Array.iter
      (fun w ->
        if w.pid > 0 then begin
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
          (try Unix.close w.fd with Unix.Unix_error _ -> ());
          w.pid <- -1
        end)
      t.workers;
    restore_sigchld t;
    t.closed <- true;
    update_gauges t
  end

(* ---- ndjson front (the `topobench pool` subcommand). ---- *)

let completion_json (c : completion) =
  Json.Obj
    [
      ("hash", Json.String c.c_hash);
      ("cached", Json.Bool c.c_cached);
      ("retries", Json.Int c.c_retries);
      ("result", Result.to_json c.c_result);
    ]

(* Serve stdin/stdout over the pool: requests are admitted into the
   bounded queue (typed `overloaded` rejection when full) and response
   lines are written in completion order, tagged by hash. [stop]
   flips under SIGTERM: stop intake, drain, exit. A request line longer
   than {!Service.max_line_bytes} is rejected as {!Service.serve}
   rejects it: once the partial line passes the cap it is dropped, a
   typed [bad_request] goes out, and input is skipped up to the next
   newline, so [ibuf] never holds more than the cap. *)
let serve ?(ic = Unix.stdin) ?(oc = stdout) ?(stop = ref false) t =
  let ibuf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let eof = ref false in
  let skipping = ref false in
  let emit doc =
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    flush oc
  in
  let flush_completions () =
    let rec go () =
      match take_completion t with
      | Some c ->
        emit (completion_json c);
        go ()
      | None -> ()
    in
    go ()
  in
  let handle_line line =
    let trimmed = String.trim line in
    if trimmed = "" || trimmed.[0] = '#' then ()
    else
      match Request.of_line trimmed with
      | Error e -> emit (Service.error_json e)
      | Ok req -> (
        match submit t req with
        | Ok _ -> ()
        | Error Overloaded ->
          emit
            (Service.error_json ~code:"overloaded"
               (Printf.sprintf "intake queue full (%d)" t.cfg.max_queue))
        | Error Draining ->
          emit (Service.error_json ~code:"overloaded" "pool is draining"))
  in
  (* Append [chunk.[pos, pos+len)], a piece of the current line, to
     [ibuf]; past the cap, drop the line and start skipping. *)
  let add_piece pos len =
    if !skipping then ()
    else if Buffer.length ibuf + len > Service.max_line_bytes then begin
      Buffer.reset ibuf;
      skipping := true;
      emit
        (Service.error_json
           (Printf.sprintf "request line exceeds %d bytes"
              Service.max_line_bytes))
    end
    else Buffer.add_subbytes ibuf chunk pos len
  in
  let read_stdin () =
    match Unix.read ic chunk 0 (Bytes.length chunk) with
    | 0 -> eof := true
    | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get chunk i = '\n' then begin
          add_piece !start (i - !start);
          if !skipping then skipping := false
          else begin
            let line = Buffer.contents ibuf in
            Buffer.clear ibuf;
            handle_line line
          end;
          start := i + 1
        end
      done;
      add_piece !start (n - !start)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  while (not !eof) && not !stop do
    (* Select over stdin and worker fds in one wait, so intake and
       responses interleave without polling. *)
    let wfds =
      Array.to_list t.workers
      |> List.filter_map (fun w -> if w.pid > 0 then Some w.fd else None)
    in
    (match Unix.select (ic :: wfds) [] [] 0.05 with
    | readable, _, _ -> if List.mem ic readable then read_stdin ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ());
    step ~timeout_ms:0.0 t;
    flush_completions ()
  done;
  (* EOF or SIGTERM: graceful drain — no new intake, finish what was
     accepted, flush the answers, fold the store segments. *)
  let leftover = Buffer.contents ibuf in
  if (not !stop) && String.trim leftover <> "" then handle_line leftover;
  t.draining <- true;
  while pending_count t > 0 do
    step t;
    flush_completions ()
  done;
  flush_completions ();
  drain t
