(** The unified solve request: every front end (CLI subcommands, the
    ndjson daemon, the experiment drivers) describes work as a value of
    this one type, and the service caches results under its content
    hash.

    Canonicalization is what makes the hash usable as a cache key: the
    canonical byte serialization resolves every alias ("rm" -> "rm1",
    "flattenedbf" -> "flatbf"), renders every defaulted field
    explicitly, and prints floats with the same fixpoint printer as
    {!Tb_obs.Json} — so two requests describe the same computation iff
    their bytes (and therefore their hashes) are equal. *)

type topo_spec =
  | Spec of Tb_topo.Catalog.spec  (** generated family instance *)
  | Inline_topo of string  (** topology file contents, {!Tb_topo.Io} format *)

type tm_spec =
  | Named of string  (** a2a, rm1, rm5, lm, kodialam, tmh, tmf *)
  | Inline_tm of string  (** TM file contents, {!Tb_tm.Io} format *)

(** Solver selection, mapped onto the {!Tb_harness.Solve} degradation
    chain: [Auto] runs the full chain, [Exact_lp] only the exact rung
    (with the LP-size ceiling lifted to {!Tb_flow.Exact.max_lp_variables}),
    [Fptas] skips the exact rung, [Cut_bound] only computes bounds. *)
type solver = Auto | Exact_lp | Fptas | Cut_bound

type t = {
  topo : topo_spec;
  tm : tm_spec;
  solver : solver;
  eps : float;  (** FPTAS step size *)
  tol : float;  (** certified relative gap requested of the FPTAS rung *)
  budget_ms : float;
      (** per-attempt wall-clock deadline in milliseconds
          ([infinity] = unbounded) *)
  seed : int;  (** drives randomized named-TM generation *)
}

(** Defaults: [Auto] solver, the {!Tb_harness.Solve.default_policy}
    eps/tol, no deadline, seed 42. *)
val make :
  ?solver:solver ->
  ?eps:float ->
  ?tol:float ->
  ?budget_ms:float ->
  ?seed:int ->
  topo:topo_spec ->
  tm:tm_spec ->
  unit ->
  t

(** Request for an already-built instance, carried inline (via the
    {!Tb_topo.Io}/{!Tb_tm.Io} text formats) so the hash covers the
    exact graph and demands. *)
val of_instance :
  ?solver:solver ->
  ?eps:float ->
  ?tol:float ->
  ?budget_ms:float ->
  Tb_topo.Topology.t ->
  Tb_tm.Tm.t ->
  t

val solver_name : solver -> string

(** Build a named TM on [topo] exactly as the CLI historically did
    (rng seeded with [seed + 1]); [None] for an unknown name. *)
val build_named_tm : seed:int -> Tb_topo.Topology.t -> string -> Tb_tm.Tm.t option

(** Canonical serialization: aliases resolved, defaults explicit,
    floats in {!Tb_obs.Json} fixpoint form, inline payloads
    length-prefixed. Equal computations produce equal bytes. *)
val canonical_bytes : t -> string

(** Hex content hash of {!canonical_bytes} (the cache key). *)
val hash : t -> string

(** The canonical topology component of {!canonical_bytes} — equal iff
    two requests name the same instance, so a batch can share one graph
    build per distinct key. *)
val topo_key : t -> string

(** JSON round-trip; [of_json] fills absent optional fields with the
    {!make} defaults and canonicalizes names, so a defaulted and an
    explicit rendering of the same request hash identically. It returns
    [Error] unless [0 < eps < 1] and [tol] is positive and finite. *)
val to_json : t -> Tb_obs.Json.t

val of_json : Tb_obs.Json.t -> (t, string) result

(** Parse one ndjson line. *)
val of_line : string -> (t, string) result

(** @raise Failure on an unknown family / infeasible parameters,
    {!Tb_topo.Io.Parse_error} on bad inline text. *)
val build_topology : topo_spec -> Tb_topo.Topology.t

(** @raise Failure / {!Tb_tm.Io.Parse_error} likewise. *)
val build_tm : t -> Tb_topo.Topology.t -> Tb_tm.Tm.t

(** [build_topology] + [build_tm]. *)
val build : t -> Tb_topo.Topology.t * Tb_tm.Tm.t
