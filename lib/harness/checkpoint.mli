(** Persistent sweep checkpoint: completed (cell key -> JSON result)
    pairs on the {!Tb_obs.Events} record log, so a killed run can
    resume from the last completed cell.

    The file starts with the header line [{"checkpoint":2}]; each
    {!record} appends one flushed line [{"key":k,"value":v}], with an
    ["extra"] member when carry-along state is given. On load, the last
    line for a key wins, and so does the last ["extra"]. A torn final
    line from a killed run is skipped, so its cell is recomputed.

    A file without the header is foreign (a version-1 document, a torn
    header, anything else): it loads as an empty checkpoint with a
    logged warning, never an error, and the first {!record} replaces it
    (temp file + rename) with the header and that record rather than
    appending to it. *)

type t

(** Load the checkpoint at [path], or an empty one bound to [path]. *)
val load : path:string -> t

val path : t -> string
val find : t -> string -> Tb_obs.Json.t option

(** [record ?extra t key value] records one completed cell and appends
    it to the file before returning. Re-recording a key overwrites its
    value. [extra] (e.g. a warm-start cache snapshot) lands in the same
    line as the cell, so on resume {!extra} returns exactly the state
    the interrupted run had after its last completed cell, which is
    what checkpoint/resume bit-identity of warm-started sweeps
    requires. *)
val record : ?extra:Tb_obs.Json.t -> t -> string -> Tb_obs.Json.t -> unit

(** The carry-along state of the latest record that had one, if any. *)
val extra : t -> Tb_obs.Json.t option
