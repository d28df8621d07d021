(** Fork-join data parallelism over OCaml 5 domains, used to spread
    independent throughput computations across cores. *)

(** Worker-domain cap from the hardware: one core is left for the
    orchestrating domain, capped at 8. *)
val hardware_domains : int

(** Effective worker count for the next call: {!hardware_domains}
    unless the TOPOBENCH_DOMAINS environment variable overrides it
    (0/1 forces sequential, k > 1 uses up to k domains). Re-read on
    every call so tests can flip it in-process. *)
val domain_count : unit -> int

(** Set to [false] to force sequential execution of the gated maps
    (useful when an outer loop already owns the cores). *)
val enabled : bool ref

(** [map_array f a] is [Array.map f a] computed with up to
    {!domain_count} domains. [f] must not share mutable state across
    elements. Respects {!enabled}. Results are returned in index order,
    so any sequential fold over them is deterministic regardless of the
    domain count. If some [f] raises, every spawned domain is joined
    before the first exception (the calling domain's, else the earliest
    worker's) is re-raised. *)
val map_array : ('a -> 'b) -> 'a array -> 'b array

(** Like {!map_array} but ignores {!enabled} — for outer experiment
    loops that own the cores while gated inner maps run sequential. *)
val force_map_array : ('a -> 'b) -> 'a array -> 'b array
