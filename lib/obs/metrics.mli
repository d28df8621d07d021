(** Process-wide metrics registry: named counters, gauges, timers and
    log-scale histograms.

    Hot-path contract: obtain the metric handle once (typically at
    module init) and mutate it with {!incr}/{!add}/{!observe} — each is
    a plain field write, no lookup, no allocation, no atomics. Under
    multi-domain sweeps concurrent increments may race and drop counts;
    these are diagnostics, not accounting, and the trade keeps solvers
    at full speed. *)

type counter
type gauge
type timer
type histogram

type hdr
(** Fixed-precision (~1%) latency histogram backed by {!Hdr}, sharded
    per domain and merged at read time — the kind to use for anything
    user-facing (request latency, queue wait). The log-scale
    {!histogram} stays for coarse, factor-of-2 diagnostics. *)

(** Register-or-find by name. A name maps to exactly one metric kind;
    re-registering under a different kind raises [Invalid_argument]. *)

val counter : string -> counter

val gauge : string -> gauge
val timer : string -> timer
val histogram : string -> histogram
val hdr : string -> hdr

val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int
val set : gauge -> float -> unit

(** Accumulate an interval measured by the caller. *)
val record_ns : timer -> int64 -> unit

(** Time a thunk on the monotonic clock (exceptions still record). *)
val time : timer -> (unit -> 'a) -> 'a

val timer_total_ms : timer -> float
val timer_count : timer -> int

(** Record a nonnegative sample into power-of-two buckets. *)
val observe : histogram -> float -> unit

val histogram_count : histogram -> int
val histogram_mean : histogram -> float

(** Log-scale quantile estimate (exact to a factor of 2). *)
val histogram_quantile : histogram -> float -> float

(** Record a sample (conventionally milliseconds) into the calling
    domain's shard — contention-free on the hot path. *)
val observe_hdr : hdr -> float -> unit

(** Merge of all shards at this instant; query it with {!Hdr.quantile}
    and friends. *)
val hdr_merged : hdr -> Hdr.t

(** Registered counter by name, if any — for reading someone else's
    counter without creating it. *)
val find_counter : string -> counter option

(** All counters as [(name, count)], sorted by name — for before/after
    deltas around an experiment. *)
val counter_snapshot : unit -> (string * int) list

(** All timers as [(name, (count, total_ms))], sorted by name — so
    bench deltas can attribute timed work, not just counts. *)
val timer_snapshot : unit -> (string * (int * float)) list

(** Both histogram kinds as [(name, (count, sum))], sorted by name. *)
val histogram_snapshot : unit -> (string * (int * float)) list

(** Zero every registered metric (tests, per-section deltas). *)
val reset : unit -> unit

(** Whole registry as one JSON object keyed by metric name. *)
val to_json : unit -> Json.t

(** [to_json] pretty-printed to a file. *)
val write : string -> unit

(** The whole registry in Prometheus text exposition format 0.0.4:
    dots become underscores, counters/gauges map directly, timers and
    histograms render as summaries ([_sum]/[_count], plus
    [quantile="..."] series for histograms). Values keep the
    registry's milliseconds convention. *)
val to_prometheus : unit -> string

(** The same exposition rendered from a {!to_json} snapshot read back
    from disk; [Error] if the document is not a metrics snapshot. *)
val prometheus_of_json : Json.t -> (string, string) result
