(** Append-only on-disk result store — the persistent tier of the
    service cache. One JSON object per line ([{"hash": h, "result": r}]);
    every append is flushed whole, and {!compact} rewrites the file via
    temp-file + rename (the {!Tb_harness.Checkpoint} idiom), so a store
    is never left unreadable. A torn final line from a killed writer is
    skipped (with a logged warning) on reopen; every fully written entry
    survives.

    Concurrent writers: {!append} and {!compact} serialize through a
    POSIX advisory lock on [path ^ ".lock"] ([lockf], so the lock dies
    with its holder — a [kill -9] mid-compaction never wedges the
    store). An appender whose file was swapped underneath it by a
    concurrent compaction detects the stale inode under the lock and
    re-opens before writing, so no append is ever lost to the rename.
    The pool supervisor gives each worker its own segment file, making
    every segment single-writer; {!merge} folds segments back into one
    store, atomically. *)

type t

(** Open (or create-on-first-append) the store at [path]. A missing file
    is an empty store; unreadable lines are skipped, never an error. *)
val open_ : path:string -> t

(** Entries currently resident (after torn-line recovery). *)
val length : t -> int

val mem : t -> string -> bool
val find : t -> string -> Tb_obs.Json.t option

(** Raised when the [.lock] file stays held past the bounded backoff
    (~1s) — a stuck peer, not a recoverable race. *)
exception Lock_timeout of string

(** Persist one result: the line is appended and flushed before
    returning, under the store lock. Re-appending a hash overwrites the
    in-memory binding; the old line stays on disk until {!compact}.
    @raise Lock_timeout if the lock cannot be acquired. *)
val append : t -> string -> Tb_obs.Json.t -> unit

(** Rewrite the file with one line per live hash, atomically
    (temp + rename) and under the store lock, so a concurrent
    {!append} can never interleave with the swap. Before rewriting, the
    current file is re-read under the lock, so entries appended by
    {e other} processes since this handle opened are preserved — a
    compactor racing a concurrent appender loses nothing.
    @raise Lock_timeout if the lock cannot be acquired. *)
val compact : t -> unit

val close : t -> unit

(** [merge ~into paths] folds the entries of [paths] (torn lines
    skipped; later segments win duplicated hashes) into the single
    store file [into], written atomically under [into]'s lock. An
    existing [into] file is folded in first, so repeated merges
    accumulate. Returns the number of distinct entries written. The
    sources are left untouched. *)
val merge : into:string -> string list -> int
