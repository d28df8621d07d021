(** Aligned plain-text tables: every figure and table of the paper is
    regenerated as rows printed through this module, so benchmark output
    stays diffable and easy to plot externally. *)

type align = Left | Right
type t

val create : title:string -> string list -> t

(** Raises [Invalid_argument] if the row arity differs from the
    header's. *)
val add_row : t -> string list -> unit

val cell_f : float -> string
val render : ?align:align -> t -> string
val print : ?align:align -> t -> unit
