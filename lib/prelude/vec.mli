(** Dense float-vector kernels (unboxed float arrays). *)

val dot : float array -> float array -> float
val norm2 : float array -> float

(** [axpy_in_place a c b]: [a <- a + c * b]. *)
val axpy_in_place : float array -> float -> float array -> unit

val normalize_in_place : float array -> unit
