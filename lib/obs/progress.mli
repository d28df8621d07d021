(** Progress/ETA reporting for long sweeps. Lines go to stderr (by
    default) so stdout remains a clean table stream; [step] is
    mutex-guarded and safe to call from parallel sweep workers. *)

type t

val create : ?out:out_channel -> label:string -> int -> t

(** Mark one unit done and print "label: k/n done (elapsed, ~eta left)". *)
val step : t -> unit

(** Human-friendly duration (e.g. "45.2s", "2m10s", "1h05m"). *)
val fmt_seconds : float -> string
