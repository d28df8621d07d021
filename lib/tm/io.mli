(** Traffic-matrix files: one [src dst weight] flow per line, [#]
    comments allowed. Malformed input raises the typed {!Parse_error}
    carrying file and line context — never a bare [Failure]. *)

exception Parse_error of { file : string; line : int; msg : string }

(** ["file:line: msg"] (line 0 marks whole-file problems). *)
val error_message : file:string -> line:int -> msg:string -> string

(** @param file name used in error context (default ["<string>"]). *)
val of_string : ?file:string -> string -> Tm.t

val load : string -> Tm.t

(** {!load} with parse and filesystem errors rendered as one printable
    line instead of raised. *)
val load_result : string -> (Tm.t, string) result

val to_string : Tm.t -> string
