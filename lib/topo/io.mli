(** Plain-text topology files.

    Format, one directive per line ([#] comments):
    {v
    name <string>          optional
    kind switch|server     optional, default switch
    nodes <n>              required first
    hosts <v> <count>      servers at node v (default: 1 everywhere if
                           no hosts directive appears at all)
    hosts-all <count>
    edge <u> <v> [cap]     undirected link, capacity defaults to 1
    v}

    Malformed input raises the typed {!Parse_error} carrying file and
    line context — never a bare [Failure]. *)

exception Parse_error of { file : string; line : int; msg : string }

(** ["file:line: msg"] (line 0 marks whole-file problems). *)
val error_message : file:string -> line:int -> msg:string -> string

(** @param file name used in error context (default ["<string>"]). *)
val of_string : ?file:string -> string -> Topology.t

val load : string -> Topology.t

(** {!load} with parse and filesystem errors rendered as one printable
    line instead of raised. *)
val load_result : string -> (Topology.t, string) result

val to_string : Topology.t -> string
