(** Per-solve wall-clock budgets, enforced through the solvers' periodic
    hooks (monotonic clock; no signals, no threads).

    All budgets are wall-clock milliseconds. Every solver entry point in
    the flow layer accepts [?deadline:t] and checks it at its periodic
    hook, so a deadline bounds any solve without touching the inner
    loops: the solver unwinds at its next check point. *)

exception Timed_out of { elapsed_ms : float; budget_ms : float }

type t

(** Start the clock. [budget_ms] is in wall-clock milliseconds;
    [infinity] never expires. *)
val start : budget_ms:float -> t

(** Milliseconds left before expiry ([infinity] for an unbounded
    deadline, [0.] once spent). *)
val remaining_ms : t -> float

val expired : t -> bool

(** @raise Timed_out once the budget is spent. *)
val check : t -> unit

(** {!check} as a convergence sink, for [?on_check] on the iterative
    flow solvers. *)
val sink : t -> Convergence.sink

(** [guard deadline on_check] runs {!sink} of the deadline, if any,
    before [on_check]: how a solver honours its [?deadline]. *)
val guard : t option -> Convergence.sink -> Convergence.sink

(** One-line rendering of {!Timed_out}; [None] on other exceptions. *)
val describe : exn -> string option
