(** Facebook-like rack-level workloads (Section IV-B). The raw Roy et
    al. data is not public; these are synthetic TMs with the published
    structure, quantized to powers of ten exactly as the paper's own
    plot-scraping was (see DESIGN.md). *)

module Topology = Tb_topo.Topology
module Rng = Tb_prelude.Rng

type cluster =
  | Hadoop  (** TM-H: near-uniform weights *)
  | Frontend  (** TM-F: skewed cache/web structure *)

val num_racks : int

(** The full 64-rack TM, deterministic given [seed]. *)
val cluster_tm : ?seed:int -> cluster -> Tm.t

(** Keep only the first [m] racks. *)
val downsample : int -> Tm.t -> Tm.t

(** Random rack relabeling (the paper's "Shuffled" placement). *)
val shuffle : Rng.t -> racks:int -> Tm.t -> Tm.t

(** Downsample to the topology's endpoint count, optionally shuffle,
    place, and hose-normalize. *)
val instantiate : ?rng:Rng.t -> Topology.t -> cluster -> Tm.t
