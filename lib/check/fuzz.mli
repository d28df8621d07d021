(** The fuzz loop behind [topobench check]: replay the committed corpus,
    then run freshly generated instances, all through the
    {!Diff.check_instance} differential runner against one shared
    {!Tb_service.Service} (so the cache-identity certificate sees real
    hits).

    Determinism: the instance stream is a pure function of
    [config.seed], and each instance's own generator seed is printed on
    failure — [Gen.instance_of_seed] regenerates it exactly, and
    committing that seed into the corpus directory pins it forever. *)

(** What to run over each instance: the classic every-solver
    differential runner ({!Diff.check_instance}), or the warm-vs-cold
    equivalence subject ({!Warm_check.check_instance}: solve cold,
    perturb by one edge deletion / one demand scaling, assert the
    warm-started bracket is certificate-green and agrees with an
    independent cold solve). *)
type subject = All_solvers | Warm_vs_cold

(** Accepts ["all"]/["all_solvers"] and ["warm_vs_cold"]/["warm"]. *)
val subject_of_string : string -> subject option

type config = {
  instances : int;  (** freshly generated instances to run *)
  seed : int;  (** base seed for the generated stream *)
  corpus : string option;  (** directory of corpus [.json] files *)
  subject : subject;  (** which checker runs over the stream *)
}

type report = {
  tally : Diff.tally;
  instances_run : int;
  corpus_replayed : int;
}

(** Run the loop. [progress] is called once per instance with a
    one-line description (default: silent). *)
val run : ?progress:(string -> unit) -> config -> report

(** The Diff tally extended with run metadata:
    [{"instances", "corpus_replayed", "seed", "failures_total",
    "certificates", "failures"}]. *)
val report_json : config -> report -> Tb_obs.Json.t

(** [0] iff at least one instance ran and every certificate passed. *)
val exit_code : report -> int
