(** Structured event log: newline-delimited JSON records appended
    through a size-rotating writer, plus a torn-line-tolerant reader.

    The service tier uses this as its access log — one record per
    request — but the format is generic: {!write} takes any field list
    and appends it as a single-line JSON object, flushed per record so
    a killed process loses at most the line being written.

    Rotation keeps a long-running daemon's disk usage bounded: when the
    current file would exceed [max_bytes], it is renamed to [path.1]
    (shifting [path.1] to [path.2] and so on, dropping the oldest past
    [max_keep]) and a fresh file is started. *)

type writer

(** Open [path] for appending (created if absent). A torn final line
    left by a killed writer is newline-terminated before the first
    append, so recovery never concatenates records.
    @param max_bytes rotation threshold (default 64 MiB)
    @param max_keep rotated files kept as [path.1] .. [path.N]
    (default 3) *)
val open_ : ?max_bytes:int -> ?max_keep:int -> string -> writer

(** Append one record as a single JSON-object line and flush. *)
val write : writer -> (string * Json.t) list -> unit

val close : writer -> unit

(** Read every record of one ndjson file, oldest first. Unparsable
    lines — a torn final line, a corrupted record — are skipped, not
    fatal; the second component counts them. *)
val read : string -> Json.t list * int
