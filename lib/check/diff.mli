(** The differential runner: evaluate one fuzz instance with every
    applicable solver, validate every certificate of {!Tb_cert.Cert}, and
    cross-check the results against each other and against metamorphic
    transformations of the instance.

    Solver routes exercised per instance:
    - the exact edge LP (ground truth when the LP-variable budget
      allows),
    - path-based column generation (equal optimum, checked via its path
      decomposition),
    - the Fleischer FPTAS (primal flow + dual length certificates),
    - the restricted-path MCF over k-shortest paths (a certified lower
      bound on the unrestricted optimum),
    - the sparse-cut estimator suite (witness-checked upper bound),
    - and the {!Tb_service} front door (per-solver requests, so the
      content-addressed cache is exercised and every hit must be
      bit-identical to its miss).

    Metamorphic properties rotate per instance index: capacity scaling
    (throughput is homogeneous in capacity), node relabeling invariance,
    and TM scaling (throughput is inverse-homogeneous in demand).
    Theorem 2 ([T_lm >= T_A2A/2]) runs on every 5th instance. *)

(** Mutable pass/fail accumulator across a fuzz run. *)
type tally

type failure = {
  cert : string;
  detail : string;
  seed : int;
  tag : string;
}

val create : unit -> tally

(** [record t ~inst ~cert verdict] counts the verdict (and keeps the
    detail of a failure). *)
val record : tally -> inst:Gen.instance -> cert:string -> Tb_cert.Cert.verdict -> unit

val passes : tally -> string -> int
val fails : tally -> string -> int
val total_failures : tally -> int

(** Failures in discovery order. *)
val failures : tally -> failure list

(** Certificate names with at least one validation so far. *)
val exercised : tally -> string list

(** [{"certificates": {name: {"pass": n, "fail": m}}, "failures": [...]}] *)
val to_json : tally -> Tb_obs.Json.t

(** Run every applicable solver and certificate over one instance,
    recording into the tally. Never raises: an unexpected solver
    exception is itself recorded as a ["no_crash"] failure. *)
val check_instance :
  service:Tb_service.Service.t -> tally -> index:int -> Gen.instance -> unit
