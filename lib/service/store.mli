(** Append-only on-disk result store — the persistent tier of the
    service cache. One JSON object per line ([{"hash": h, "result": r}])
    on the {!Tb_obs.Events} record log: every append is flushed whole,
    and a torn final line from a killed writer is skipped (with a
    logged warning) on reopen; every fully written entry survives.
    [merge ~into:path []] compacts a store: it rewrites the file with
    one line per live hash, via temp-file + rename, so a store is never
    left unreadable.

    Concurrent writers: {!append} and {!merge} serialize through a
    POSIX advisory lock on [path ^ ".lock"] ([lockf], so the lock dies
    with its holder — a [kill -9] mid-merge never wedges the store).
    An appender whose file was swapped underneath it by a concurrent
    merge detects the stale inode under the lock and re-opens before
    writing, so no append is ever lost to the rename.
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
    in-memory binding; the old line stays on disk until a
    [merge ~into:path []] compacts the file.
    @raise Lock_timeout if the lock cannot be acquired. *)
val append : t -> string -> Tb_obs.Json.t -> unit

val close : t -> unit

(** [merge ~into paths] folds the entries of [paths] (torn lines
    skipped; later segments win duplicated hashes) into the single
    store file [into], written atomically under [into]'s lock. An
    existing [into] file is folded in first, re-read under the lock, so
    repeated merges accumulate and entries appended by a concurrent
    {!append} are kept; [merge ~into:path []] is thus the store's
    compaction. Returns the number of distinct entries written. The
    sources are left untouched.
    @raise Lock_timeout if the lock cannot be acquired. *)
val merge : into:string -> string list -> int
