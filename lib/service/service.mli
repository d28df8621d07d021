(** The batching solve daemon: the one front door through which the CLI,
    the ndjson protocol and the experiment drivers run throughput
    computations.

    Results are cached in two tiers keyed by {!Request.hash}: a
    fixed-capacity in-memory {!Lru} in front of an optional append-only
    {!Store}. A hit returns the stored {!Result.t} verbatim — including
    its original [solve_ms] — so its JSON rendering is bit-identical to
    the miss that populated it. A result is rendered once, when it is
    solved or promoted from the store into the LRU, and every response
    carries those bytes: a hit formats no float. Error results and
    fault-injected solves never enter the cache.

    Counters under the ["service."] prefix in {!Tb_obs.Metrics}:
    [requests], [solves], [errors], [coalesced], [cache.hits],
    [cache.misses], [cache.evictions], plus the [queue_depth] gauge
    while a batch is in flight. Latency distributions are
    fixed-precision {!Tb_obs.Metrics.hdr} histograms (milliseconds):
    [service.latency_ms] (end-to-end {!handle}), [service.solve_ms]
    (each fresh solve), [service.queue_ms] (batch intake to solve
    start) and [service.coalesce_wait_ms] (a duplicate's wait for its
    canonical's result).

    When tracing is enabled ({!Tb_obs.Trace}), each request emits
    lifecycle spans — [service.request], [service.cache_lookup],
    [service.build], [service.solve] (and [service.intake] in {!intake},
    [service.render] in the {!serve} loop, [service.batch] around a
    batch) — all carrying the request hash as a span argument, so a
    Chrome trace of the daemon can be filtered to one request's path.

    With an access log attached, every request appends one ndjson
    record: [ts_ms], [hash], [solver], [rung], [cached], [coalesced],
    [queue_ms], [solve_ms], [error] (null unless the solve failed).

    Thread-safety: cache state is mutex-protected, so {!handle} may be
    called from concurrent domains (the experiment drivers do); access
    log writes are serialized under the same lock. *)

type t

(** @param capacity in-memory LRU entries (default 256).
    @param store_path persistent tier; opened (or created) immediately,
    so prior results survive restarts.
    @param access_log structured per-request log, appended to via
    {!Tb_obs.Events} (the caller closes it). *)
val create :
  ?capacity:int ->
  ?store_path:string ->
  ?access_log:Tb_obs.Events.writer ->
  unit ->
  t

val store : t -> Store.t option
val access_log : t -> Tb_obs.Events.writer option

type response = {
  hash : string;  (** {!Request.hash} of the request *)
  cached : bool;  (** served from a cache tier, not solved *)
  result : Result.t;
  result_bytes : string;
      (** [Json.to_string (Result.to_json result)], rendered by the solve
          (or store promotion) that made the entry; a hit shares it *)
}

(** Serve one request: cache lookup, else solve via the
    {!Tb_harness.Solve} chain. Never raises on solver failure — a
    failing solve yields an [error] result (fault isolation). A request
    under fault injection ([fault] active) bypasses both cache tiers.
    @param prebuilt skip instance construction (the CLI prebuilds to
    keep its historical parse-error behavior); the caller asserts the
    instance matches the request.
    @param warm a {!Tb_harness.Warm} cache and the key to chain under
    (e.g. the intact topology label shared by a sweep's neighboring
    cells). On a cache-miss solve, the entry under that key
    warm-starts the chain (certificate-guarded, see
    {!Tb_harness.Solve.solve}) and the outcome's dual lengths replace
    the entry afterwards. Fault-injected requests never touch the warm
    cache. The warm cache itself is NOT mutex-protected — callers
    threading [?warm] must serialize those calls (sweeps are
    sequential). *)
val handle :
  ?fault:Tb_harness.Fault.t ->
  ?prebuilt:Tb_topo.Topology.t * Tb_tm.Tm.t ->
  ?warm:Tb_harness.Warm.t * string ->
  t ->
  Request.t ->
  response

(** Serve a batch: duplicate hashes are coalesced to one solve (the
    [coalesced] counter totals the duplicates), distinct requests
    naming the same topology share one graph build, and the misses fan
    out over domains via {!Tb_prelude.Parallel.force_map_array} (each
    solve runs on one domain). Responses come back in request order; a
    failing cell yields an error response, never an exception. *)
val handle_batch : t -> Request.t list -> response list

(** [{"hash": h, "cached": b, "result": {...}}], the result as
    [Json.Raw result_bytes]. *)
val response_json : response -> Tb_obs.Json.t

(** The typed error line: [{"error": msg, "code": code}]. Codes in use:
    ["bad_request"] (default; malformed or oversized request line) and
    ["overloaded"] (pool admission control). *)
val error_json : ?code:string -> string -> Tb_obs.Json.t

(** Request lines longer than this many bytes are rejected with a typed
    ["bad_request"] error instead of being buffered without bound. *)
val max_line_bytes : int

(** The one ndjson line framer, fed whatever chunks {!serve},
    [Pool.serve], [topobench batch] and the pool's reader of worker
    replies read; any chunking yields the same frames. A line of up to
    [max] bytes before its ['\n'] (['\r'] included) is a [Line]; a
    longer one is one [Oversized], emitted as the cap is passed, and is
    never buffered. [emit] may [reset] the framer; [finish] yields a
    final unterminated line; [input_all] feeds a channel to EOF. *)
module Framer : sig
  type frame = Line of string | Oversized
  type t

  val create : max:int -> t
  val feed : t -> Bytes.t -> int -> int -> (frame -> unit) -> unit
  val finish : t -> (frame -> unit) -> unit
  val reset : t -> unit
  val input_all : t -> in_channel -> (frame -> unit) -> unit
end

(** What every front does with a frame: [None] for a blank or [#]
    line, else the trimmed line through {!Request.of_line}. A parse
    failure or an [Oversized] frame ("request line exceeds N bytes")
    becomes the typed ["bad_request"] {!error_json} and counts once in
    [service.errors], the one count [serve], [batch] and [pool] share.
    Never raises. *)
val intake : Framer.frame -> (Request.t, Tb_obs.Json.t) result option

(** Newline-delimited JSON loop: one {!Request} per input line, one
    {!response_json} line out (flushed per line), read through a
    {!Framer} and {!intake}. Unparsable lines produce one typed
    {!error_json} line each, and a line over {!max_line_bytes} is
    rejected the same way, unbuffered — a bad request never takes the
    daemon down. Returns at EOF (also how a pool worker learns its
    supervisor is gone: the socketpair closes, the loop returns, the
    worker exits cleanly). *)
val serve : ?ic:in_channel -> ?oc:out_channel -> t -> unit

(** Run frames (a request file's) as one {!handle_batch}: one JSON
    document per {!intake} result, in order, so a malformed or
    oversized line's typed error keeps its position. *)
val batch_lines : t -> Framer.frame list -> Tb_obs.Json.t list
