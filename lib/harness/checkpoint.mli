(** Persistent sweep checkpoint: completed (cell key -> JSON result)
    pairs, rewritten atomically (temp file + rename) on every
    {!record}, so a killed run can resume from the last completed cell.
    A missing, corrupt, or foreign file loads as an empty store (with a
    logged warning), never an error. *)

type t

(** Load the checkpoint at [path], or an empty store bound to [path]. *)
val load : path:string -> t

val path : t -> string
val completed : t -> int
val find : t -> string -> Tb_obs.Json.t option
val mem : t -> string -> bool

(** Record one completed cell and persist the whole store atomically.
    Re-recording a key overwrites its value. *)
val record : t -> string -> Tb_obs.Json.t -> unit

(** Stage carry-along state (e.g. a warm-start cache snapshot) to be
    persisted in the SAME atomic save as the next {!record} — so on
    resume, {!extra} returns exactly the state the interrupted run had
    after its last completed cell, which is what checkpoint/resume
    bit-identity of warm-started sweeps requires. Memory-only until
    that next {!record}. *)
val set_extra : t -> Tb_obs.Json.t -> unit

(** The staged or loaded carry-along state, if any. *)
val extra : t -> Tb_obs.Json.t option
