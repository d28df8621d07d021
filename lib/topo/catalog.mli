(** Instance enumeration for the experiments: per family a size sweep
    (Figs. 5/6), a mid-size representative (Figs. 4, 10-14), and small
    instances for the brute-force cut studies (Fig. 3, Table II).
    Sizes are scaled to what the pure-OCaml solver computes in seconds
    per point. *)

module Rng = Tb_prelude.Rng

type family =
  | Bcube
  | Dcell
  | Dragonfly
  | Fattree
  | Flattened_bf
  | Hypercube
  | Hyperx
  | Jellyfish
  | Longhop
  | Slimfly

val all_families : family list
val family_name : family -> string

(** {1 Textual instance specs}

    One parser for every front end (CLI flags, service requests, bench
    workloads) so a family/size string means the same instance
    everywhere. Grammar:

    {v family[:size][,deg=D][,hosts=H][,seed=S] v}

    e.g. ["hypercube:3"], ["jellyfish:16,deg=6,hosts=4,seed=7"].
    Families are the lowercase CLI names (["fattree"], ["flatbf"],
    ["xpander"], ...); [deg] defaults to 6, [hosts] to 1, [seed] to 42,
    and a missing size to a per-family default. *)

type spec = {
  family : string; (** canonical lowercase family name *)
  size : int option; (** primary parameter; [None] = family default *)
  degree : int; (** switch degree (Jellyfish, Xpander) *)
  hosts : int; (** servers per switch where the family takes it *)
  seed : int; (** seed for randomized constructions *)
}

(** Lowercase names {!spec_of_string} accepts (canonical forms only). *)
val known_families : string list

(** Parse; unknown families, bad numbers, unknown keys and
    unrepresentable sizes (odd fat-tree [k], composite Slim Fly [q],
    out-of-range hypercube dims, ...) are [Error]. *)
val spec_of_string : string -> (spec, string) result

(** Canonical rendering: every field explicit, aliases resolved, size
    defaulted — equal instances render byte-identically, so the string
    can key a cache. Round-trips through {!spec_of_string}. *)
val spec_to_string : spec -> string

(** Build the instance a spec names (deterministic given [spec.seed]).
    @raise Failure on an unknown family or infeasible parameters
    (everything {!spec_of_string} rejects). *)
val build_spec : spec -> Topology.t

(** {1 Scale instances}

    Predicted instance shape and flat memory footprint, for sizing
    datacenter-scale runs before committing to them. *)

type estimate = {
  nodes : int; (** switches *)
  edges : int; (** undirected links *)
  flat_bytes : int;
      (** Bigarray CSR + edge-array footprint of the built graph
          ({!Tb_graph.Graph.bigarray_bytes}); solver state is roughly
          another [5 * 8 * nodes + 2 * 8 * edges] bytes per concurrent
          SSSP state. *)
}

(** Closed-form estimate for families whose shape is determined by the
    spec (fat tree, dragonfly, xpander, jellyfish, hypercube, slim
    fly); [None] for search-based families (HyperX) and recursive
    constructions without a simple closed form. *)
val estimate : spec -> estimate option

(** The documented ~100k-switch roster behind [make perf-scale]:
    [(workload name, spec string)]. Every spec parses and validates. *)
val scale_specs : (string * string) list

(** Size sweep, increasing server count. [rng] matters for Jellyfish. *)
val sweep : ?rng:Rng.t -> family -> Topology.t list

val representative : ?rng:Rng.t -> family -> Topology.t
val small : ?rng:Rng.t -> family -> Topology.t list
