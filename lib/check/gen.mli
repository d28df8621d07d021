(** Seeded random instance generation for the differential fuzzer.

    An {e instance} is a (topology, traffic matrix) pair small enough
    that several independent solvers can evaluate it in milliseconds.
    Generation is a pure function of an integer seed, so every fuzz
    failure replays from the seed printed with it (and a corpus entry
    is nothing but a pinned seed).

    Graph side: random regular graphs (the Jellyfish construction),
    Erdős–Rényi with connectivity resampling, and catalog families with
    perturbed sizes — each optionally re-capacitated with random link
    capacities. TM side: all-to-all, random permutation, skewed
    hose-normalized demand, and the longest-matching near-worst-case.

    The QCheck arbitrary wraps the same seeded generator and shrinks
    structurally: counterexamples lose nodes and demands one at a time
    while endpoint connectivity (every solver's precondition) is
    preserved. *)

module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Rng = Tb_prelude.Rng

type instance = {
  topo : Topology.t;
  tm : Tm.t;
  tag : string;  (** generator provenance, e.g. ["er(n=9)/skewed#s17"] *)
  seed : int;  (** the seed that regenerates this instance *)
}

(** One-line description: tag, node/edge/flow counts. *)
val describe : instance -> string

(** {1 Graph generators} *)

(** {1 TM generators} *)

(** {1 Instances} *)

(** The fuzzer's instance distribution: a pure function of [seed]. *)
val instance_of_seed : int -> instance

(** {1 Shrinking} *)

(** [instance_of_seed] as a QCheck arbitrary whose shrinker deletes
    nodes and demands while preserving endpoint connectivity. *)
val arbitrary : instance QCheck.arbitrary
