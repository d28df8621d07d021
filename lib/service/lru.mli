(** Fixed-capacity LRU map from string keys (request hashes) — the
    in-memory tier of the service result cache. Not thread-safe; the
    service serializes access with its own lock. *)

type 'v t

(** @raise Invalid_argument if [capacity < 1]. *)
val create : capacity:int -> 'v t

val length : 'v t -> int

(** Lookup; a hit promotes the key to most-recently-used. *)
val find : 'v t -> string -> 'v option

(** Insert or overwrite (either way the key becomes most recent);
    when over capacity the least-recently-used entry is dropped. *)
val add : 'v t -> string -> 'v -> unit

(** Entries dropped by capacity evictions since [create]. *)
val evictions : 'v t -> int

(** Keys most-recent first (tests of the eviction order). *)
val keys_by_recency : 'v t -> string list
