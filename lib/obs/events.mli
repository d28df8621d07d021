(** The record log: newline-delimited JSON records, appended one
    flushed line at a time and read back past a torn line. Three users
    share this one copy of the protocol: the service's access log (the
    rotating {!writer} below), the result store
    ([Tb_service.Store], which adds a lock, a stale-inode re-open and
    segment merge) and the sweep checkpoint ([Tb_harness.Checkpoint],
    which adds a header line).

    Durability: each record is one line, flushed whole, so a killed
    process loses at most the line being written. That torn line is
    newline-terminated by the next {!open_append} and skipped, and
    counted, by {!fold}; every fully written record survives.

    Rotation keeps a long-running daemon's disk usage bounded: when the
    current file would exceed [max_bytes], it is renamed to [path.1]
    (shifting [path.1] to [path.2] and so on, dropping the oldest past
    [max_keep]) and a fresh file is started. *)

(** Open [path] for appending (created if absent). A torn final line
    left by a killed writer is newline-terminated first, so the next
    record starts on its own line. *)
val open_append : string -> out_channel

(** Append one line (which must not contain ['\n']), then ['\n'], then
    flush. *)
val append_line : out_channel -> string -> unit

(** [fold f init path] folds [f] over the JSON-object lines of [path],
    oldest first. Blank lines are ignored; any other line that is not
    one JSON object (a torn final line, a corrupted record) is skipped,
    not fatal, and the second component counts those. A missing file
    folds to [(init, 0)]. *)
val fold : ('a -> Json.t -> 'a) -> 'a -> string -> 'a * int

type writer

(** A rotating writer on [path], opened with {!open_append} before its
    first record and after each rotation.
    @param max_bytes rotation threshold (default 64 MiB)
    @param max_keep rotated files kept as [path.1] .. [path.N]
    (default 3) *)
val open_ : ?max_bytes:int -> ?max_keep:int -> string -> writer

(** Append one record as a single JSON-object line and flush. *)
val write : writer -> (string * Json.t) list -> unit

val close : writer -> unit

(** Every record of one file, oldest first, and the count of skipped
    lines: {!fold} collecting the records. *)
val read : string -> Json.t list * int
