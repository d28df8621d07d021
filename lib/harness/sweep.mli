(** Resumable sweep runner: runs cells in order, records each result in
    an optional {!Checkpoint} as soon as it completes, and replays
    already-completed cells from the checkpoint — so a sweep killed
    mid-run resumes where it stopped and produces output identical to
    an uninterrupted run. *)

type cell = { key : string; run : unit -> Tb_obs.Json.t }

(** Raised between cells after a graceful-stop signal; the payload is
    the key of the first cell that did not run. *)
exception Interrupted of string

(** Cooperative stop flag checked before each cell. *)
val stop_requested : bool ref

(** Route SIGTERM/SIGINT to the stop flag so a kill lands between cells
    (after the checkpoint write), never inside one. *)
val install_graceful_stop : unit -> unit

(** [run ?checkpoint ?on_cell cells] returns [(key, result)] in cell
    order. [on_cell] fires per cell (replayed or computed) — progress
    reporting. [extra], if given, is sampled after every computed cell
    and passed to {!Checkpoint.record} so carry-along state (warm
    caches) persists in the same line as the cell record — replayed
    cells never re-sample it. *)
val run :
  ?checkpoint:Checkpoint.t ->
  ?extra:(unit -> Tb_obs.Json.t) ->
  ?on_cell:(string -> Tb_obs.Json.t -> unit) ->
  cell list ->
  (string * Tb_obs.Json.t) list
