(** Supervised multi-process service tier.

    A pool forks [workers] child processes, each running the existing
    {!Service.serve} ndjson loop over its end of a socketpair with its
    own in-memory cache and — when [store_dir] is set — its own
    append-only store segment (one writer per file, by construction).
    The supervisor never solves; it is a single-threaded [select] event
    loop that:

    - {b shards} requests to workers by {!Request.hash} (stable across
      runs for a fixed pool width), falling over to the nearest healthy
      neighbor when a shard's breaker is open;
    - {b detects failure}: worker death via SIGCHLD + EOF on the
      socketpair, wedged workers via a per-request wall deadline
      ([wall_ms], set above the request's own [budget_ms]), and
      protocol corruption (unparsable or mismatched response lines, or
      one over {!Service.max_line_bytes}, cut by a {!Service.Framer});
    - {b restarts} failed workers with exponential backoff plus seeded
      jitter, gated per worker by a circuit breaker (open after
      [breaker_threshold] consecutive failures, half-open single probe
      after [breaker_cooldown_ms]);
    - {b retries} the in-flight request of a failed worker on a healthy
      one, up to [max_retries] re-dispatches. This is safe because
      requests are content-hashed and solves deterministic: the retry
      renders bit-identical canonical bytes (see {!Result.canonical});
    - {b bounds admission}: at most [max_queue] requests queued; beyond
      that {!submit} returns a typed [Error Overloaded] — never a
      silent timeout. Dequeue is round-robin over clients, FIFO within
      a client, so one chatty client cannot starve the rest;
    - {b drains gracefully}: {!drain} stops intake, finishes everything
      accepted (restarting workers as needed), EOFs the workers so
      their serve loops return and they flush their stores and exit,
      reaps them all, and merges the per-worker store segments with
      {!Store.merge}.

    Chaos: the [chaos] injector's process-level kinds are enacted at
    the dispatch boundary — [Kill] SIGKILLs the worker mid-solve,
    [Stall] SIGSTOPs it so the hang detector must fire, [Truncate]
    corrupts the response bytes so the protocol path must recover.

    Metrics, under ["service.pool."] in {!Tb_obs.Metrics}: counters
    [requests], [completed], [rejected], [retries], [restarts],
    [worker_failures], [hangs], [retries_exhausted],
    [chaos.kills], [chaos.stalls], [chaos.truncates]; gauges
    [queue_depth], [workers_live], [breakers_open]; hdr histograms
    [latency_ms] (submit to completion) and [drain_ms]. *)

(** Restart delay schedule: exponential from [base_ms], capped at
    [max_ms], stretched by up to [jitter] (uniform) so restarts
    de-synchronize. Exposed for direct unit testing. *)
module Backoff : sig
  val delay_ms :
    base_ms:float ->
    max_ms:float ->
    jitter:float ->
    rng:Tb_prelude.Rng.t ->
    attempt:int ->
    float
end

(** Per-worker circuit breaker, injectable-clock for unit tests:
    [Closed] until [threshold] consecutive failures, then [Open] for
    [cooldown_ms], then [Half_open] admitting a single probe whose
    outcome closes or re-opens it. *)
module Breaker : sig
  type state = Closed | Open | Half_open
  type t

  val create : ?threshold:int -> ?cooldown_ms:float -> unit -> t
  val state : t -> now_ms:float -> state

  (** May work be dispatched now? In [Half_open], the first call takes
      the probe slot and later calls refuse until its outcome lands. *)
  val allows : t -> now_ms:float -> bool

  val record_success : t -> unit
  val record_failure : t -> now_ms:float -> unit
  val consecutive_failures : t -> int
end

(** Round-robin-over-clients, FIFO-within-client queue. *)
module Fair_queue : sig
  type 'a t

  val create : unit -> 'a t
  val length : 'a t -> int
  val push : 'a t -> client:string -> 'a -> unit
  val pop : 'a t -> 'a option
end

type config = {
  workers : int;  (** pool width (>= 1) *)
  max_queue : int;  (** total queued requests before [Overloaded] *)
  wall_ms : float;  (** per-dispatch hang deadline *)
  max_retries : int;  (** re-dispatches after worker failures *)
  breaker_threshold : int;
  breaker_cooldown_ms : float;
  backoff_base_ms : float;
  backoff_max_ms : float;
  backoff_jitter : float;
  cache_capacity : int;  (** each worker's in-memory LRU *)
  store_dir : string option;
      (** per-worker segments [segment-<slot>.ndjson], merged to
          [merged.ndjson] on drain *)
  access_log : string option;
      (** base path; workers append [.worker-<slot>] *)
  chaos : Tb_harness.Fault.t;
  seed : int;  (** backoff jitter stream *)
}

val default_config : config

type t

(** Fork the workers and return the supervisor handle. Installs a
    no-op SIGCHLD handler (so child death interrupts [select]) and
    ignores SIGPIPE for the process. *)
val create : ?config:config -> unit -> t

(** Live worker pids, for tests and diagnostics. *)
val worker_pids : t -> int list

(** Total worker restarts so far. *)
val restarts : t -> int

type submit_error =
  | Overloaded  (** intake queue at [max_queue] *)
  | Draining  (** {!drain} has begun; no new work *)

(** Admit a request, returning its ticket. [client] drives fair
    dequeue (default ["default"]). *)
val submit : ?client:string -> t -> Request.t -> (int, submit_error) result

type completion = {
  c_id : int;  (** the {!submit} ticket *)
  c_hash : string;
  c_client : string;
  c_cached : bool;
  c_retries : int;  (** re-dispatches this request survived *)
  c_latency_ms : float;  (** submit to completion *)
  c_result : Result.t;
      (** past [max_retries] failures this is a typed error result —
          the caller always gets an answer *)
}

(** Run the event loop one step: reap, restart, enforce deadlines,
    dispatch, and wait up to [timeout_ms] for worker responses. *)
val step : ?timeout_ms:float -> t -> unit

(** Pump the loop until some completion is available; [None] on
    timeout or when nothing is pending. *)
val next_completion : ?timeout_ms:float -> t -> completion option

(** Pump the loop until ticket [id] completes.
    @raise Invalid_argument for a ticket that is not pending. *)
val await : t -> int -> completion

(** Requests accepted but not yet completed (queued + in flight). *)
val pending_count : t -> int

(** Graceful drain: stop intake, finish everything accepted (hard-fail
    in-flight work only after [grace_ms]), EOF + reap all workers,
    merge store segments, restore signal handlers. Idempotent. *)
val drain : ?grace_ms:float -> t -> unit

(** Hard stop: SIGKILL and reap every worker, no drain. *)
val shutdown : t -> unit

(** ndjson front for the [topobench pool] subcommand: request lines in
    on [ic] (through {!Service.Framer} and {!Service.intake}),
    completion lines out on [oc] ([{"hash", "cached", "retries",
    "result"}], in completion order), typed {!Service.error_json} lines for malformed or oversized
    input ([bad_request]) and admission rejections ([overloaded]).
    Returns after EOF or once [!stop] is true (the SIGTERM flag),
    having drained gracefully. *)
val serve : ?ic:Unix.file_descr -> ?oc:out_channel -> ?stop:bool ref -> t -> unit
