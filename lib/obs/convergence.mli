(** Observer interface for iterative solvers' bound checks.

    Solvers accept [?on_check:sink] and call it at every certified-bound
    evaluation — cheap by construction, since checks happen every few
    phases (10 for Fleischer, 5 for Restricted), not every phase. Bounds are reported in the
    solver's internal pre-scaled units: the invariants (lower
    non-decreasing, upper non-increasing, final ratio within [1 + tol])
    hold there, and the result's rescaling preserves the ratio. *)

type sample = {
  phase : int;  (** completed phases at this check *)
  lower : float;  (** best certified lower bound so far *)
  upper : float;  (** best certified upper bound so far *)
  eps : float;  (** current (possibly annealed) step size *)
  t_us : float;  (** monotonic microseconds since process start *)
}

type sink = sample -> unit

(** Discards samples; the solvers' default. *)
val null : sink

(** Stamp the current time and deliver a sample. *)
val check : sink -> phase:int -> lower:float -> upper:float -> eps:float -> unit

(** A sink accumulating into memory, and the accessor for what it saw
    (in delivery order). *)
val recorder : unit -> sink * (unit -> sample list)

(** Forwards samples to {!Trace} as counter series [name ^ ".bounds"]
    and [name ^ ".eps"]; no-op while tracing is disabled. *)
val tracing : string -> sink

val combine : sink -> sink -> sink
