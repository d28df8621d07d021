(** Seeded load generator for the service tier: replays a Zipf-skewed
    (hot/cold) mix of requests over a small catalog-family × TM pool
    against an in-process {!Service}, and reports the latency/throughput
    summary that `topobench loadgen` writes to [BENCH_service.json].

    Determinism: the request pool, which pool entries are "hot", and
    the whole replayed sequence are pure functions of [config.seed] —
    two runs with the same seed replay hash-for-hash the same mix, so
    the benchmark trajectory is comparable commit to commit. *)

type config = {
  requests : int;  (** total requests replayed *)
  seed : int;
  batch : int;
      (** 1 (default) serves each request through {!Service.handle};
          [k > 1] replays chunks of [k] through {!Service.handle_batch}
          (exercising coalescing), with per-request latency amortized
          over the chunk *)
  cache_capacity : int;  (** LRU capacity of the in-process service *)
  zipf_s : float;  (** skew exponent; higher = hotter head *)
}

(** 2000 requests, seed 42, batch 1, capacity 256, skew 1.2. *)
val default : config

(** The replayed sequence: Zipf-ranked over a seed-shuffled pool. *)
val mix : config -> Request.t array

type outcome = {
  o_requests : int;
  distinct : int;  (** unique hashes in the mix *)
  duration_s : float;
  rps : float;
  hit_rate : float;  (** cached responses / requests *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  solves : int;
  errors : int;
}

(** Replay the mix against a fresh in-process service.
    @param access_log attached to the service for the run (caller
    closes it). *)
val run : ?access_log:Tb_obs.Events.writer -> config -> outcome

(** The [BENCH_service.json] document (schema
    [topobench-service-bench-v1]). *)
val outcome_json : config -> outcome -> Tb_obs.Json.t

(** Pool-mode replay parameters; [chaos] carries the process-level
    fault kinds ({!Tb_harness.Fault.Kill} / [Stall] / [Truncate])
    enacted by the {!Pool} supervisor. *)
type pool_config = {
  workers : int;
  max_queue : int;
  wall_ms : float;
  chaos : Tb_harness.Fault.t;
  store_dir : string option;
}

type pool_outcome = {
  p_base : outcome;
  p_workers : int;
  p_restarts : int;  (** worker processes restarted during the run *)
  p_retries : int;  (** supervisor re-dispatches survived by requests *)
  p_rejected : int;
      (** typed [overloaded] rejections; the client resubmitted each *)
  p_mismatches : int;
      (** completions whose {!Result.canonical} JSON differs from the
          fault-free oracle — the chaos acceptance gate requires 0 *)
  p_lost : int;  (** accepted but never answered — must be 0 *)
}

(** Replay the same mix through a supervised {!Pool}, checking every
    response against a fault-free in-process oracle (canonical bytes;
    see {!Result.canonical}). Overload is handled client-side: a typed
    rejection consumes one completion and resubmits. The pool is
    drained before returning. [pool_cfg] defaults to 4 workers, queue
    64, a 30 s wall deadline, no chaos and no store. *)
val run_pool : ?pool_cfg:pool_config -> config -> pool_outcome

(** {!outcome_json} extended with a ["pool"] object (restarts, retries,
    rejections, mismatches, lost, chaos counter totals). Base-schema
    readers are unaffected. *)
val pool_outcome_json : config -> pool_config -> pool_outcome -> Tb_obs.Json.t
