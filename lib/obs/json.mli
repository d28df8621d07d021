(** Minimal JSON tree with printer and parser — backs the Chrome
    trace-event exporter and the metrics dump, and lets the test suite
    round-trip both artifacts without an external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** An already-rendered compact JSON value, printed verbatim: the
          caller vouches that it is valid JSON. [~indent:true] leaves it
          as it is (un-indented). {!of_string} never yields it, and the
          accessors treat it as opaque ({!member} finds no field in it,
          [to_*] return [None]). The service renders a cached result
          once and serves every hit from those bytes. *)

(** Serialize; [indent] pretty-prints with two-space indentation.
    Non-finite floats print as [null] (NaN) or [±1e999] (infinities). *)
val to_string : ?indent:bool -> t -> string

(** The printer's rendering of one float: [%.1f] for integers below
    1e15, otherwise the shorter of [%.15g] and [%.17g] that parses back
    to the same float; [null] for NaN and [±1e999] for the infinities.
    Printing then parsing is a fixpoint, so request hashes rest on it. *)
val float_to_string : float -> string

(** Write to [path], pretty-printed, with a trailing newline. *)
val write : string -> t -> unit

(** Parse a complete document. *)
val of_string : string -> (t, string) result

(** Field lookup on [Obj] (the first binding of a repeated key);
    [None] on missing key or non-object. *)
val member : string -> t -> t option

val to_list : t -> t list option

(** Numeric coercion: accepts both [Int] and [Float]. *)
val to_float : t -> float option

val to_int : t -> int option
val to_str : t -> string option
