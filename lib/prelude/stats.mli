(** Small-sample statistics: means and 95% Student-t confidence intervals,
    matching the paper's reporting (mean over 10 iterations, 95% two-sided
    CI error bars). *)

val mean : float array -> float

(** Unbiased sample variance (0 for fewer than two samples). *)
val variance : float array -> float

val min_max : float array -> float * float
val median : float array -> float

(** Two-sided 95% Student-t critical value for [df] degrees of freedom. *)
val t_critical : df:int -> float

type summary = { mean : float; ci95 : float; n : int }

(** Mean with a 95% confidence half-width. *)
val summarize : float array -> summary
