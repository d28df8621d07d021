(** Warm-start state carried between neighboring solves of a sweep.

    An {!entry} is the reusable part of a finished solve — its dual
    length function — keyed by arc endpoints (src, dst), which are
    stable across the graph rebuilds that renumber arc ids. Transport
    onto a concrete graph re-resolves against that graph and drops or
    back-fills whatever no longer maps, so entries from a neighboring
    cell (one arc deleted, one demand scaled) remain usable. Warm state
    is strictly a convergence hint: consumers accept any positive
    lengths, and the harness re-certifies every warm-started bracket,
    so a stale entry can cost time, never correctness.

    The cache itself is a bounded FIFO keyed by caller-chosen strings
    (e.g. the intact topology label) and round-trips through JSON so a
    checkpointed sweep can persist it atomically with each cell (see
    {!Checkpoint.set_extra}). *)

module Graph = Tb_graph.Graph

type entry = {
  nodes : int;  (** node count of the source graph (sanity gate) *)
  lengths : ((int * int) * float) list;
      (** per-arc dual lengths, keyed by (src, dst) endpoints *)
}

type t

val create : ?capacity:int -> unit -> t

(** Entries currently held. *)
val size : t -> int

(** Lookup counters — [find] hits and misses since creation/restore. *)
val hits : t -> int

val misses : t -> int
val find : t -> string -> entry option

(** Insert or replace; evicts the oldest entry at capacity. *)
val store : t -> string -> entry -> unit

(** Build an entry from a solve's dual length array (indexed by arc id
    of [g]).
    @raise Invalid_argument if the array does not match [g]'s arcs. *)
val entry_of_lengths : Graph.t -> float array -> entry

(** Transport an entry's lengths onto [g]: per-arc array with unknown
    arcs back-filled by the most expensive known length. [None] when
    the entry cannot help — node counts differ, no positive finite
    lengths, or a majority of [g]'s arcs unknown — in which case the
    caller should solve cold. *)
val lengths_for : entry -> Graph.t -> float array option

(** Bit-exact JSON round-trip of the whole cache (entries in insertion
    order; counters are not persisted). *)
val to_json : t -> Tb_obs.Json.t

(** Replace the cache contents from {!to_json} output; returns [false]
    (and leaves the cache untouched, with a warning) on a foreign
    document. Unparseable individual entries are skipped. *)
val restore : t -> Tb_obs.Json.t -> bool
