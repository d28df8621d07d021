(** Immutable undirected graphs with edge capacities, stored flat in
    CSR form on Bigarrays.

    Nodes are [0, n). Each undirected edge [e = (u, v, cap)] induces two
    directed arcs of the same capacity: arc [2e] = [u -> v] and arc
    [2e+1] = [v -> u]. Flow algorithms operate on arcs; topology and cut
    code on undirected edges. Graphs are simple (no self-loops or
    parallel edges).

    The only storage is a set of [Bigarray.Array1] columns (per-edge
    endpoints/capacities and the packed CSR adjacency): flat, outside
    the OCaml heap, never scanned by the GC, shared across domains
    without copying. Element kinds are [int] and [float64] — the two
    kinds the compiler reads back unboxed. Edge records are built on
    demand from the columns. *)

type edge = { u : int; v : int; cap : float }
type t

(** Flat storage element types: [Bigarray.Array1] with C layout and the
    unboxed-on-read [int] / [float64] kinds. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Fresh uninitialized Bigarrays of the above types (solver scratch). *)
val make_ints : int -> ints

val make_floats : int -> floats

val num_nodes : t -> int
val num_edges : t -> int

(** [num_arcs g = 2 * num_edges g]. *)
val num_arcs : t -> int

(** [edges g] builds a fresh array of [num_edges g] records per call —
    convenience form, like {!succ}; hot loops index {!ba_edge_u},
    {!ba_edge_v} and {!ba_edge_cap} instead. *)
val edges : t -> edge array

(** Edge [e] as a fresh record. *)
val edge : t -> int -> edge
val arc_cap : t -> int -> float

(** [(src, dst)] of a directed arc. *)
val arc_endpoints : t -> int -> int * int

val arc_dst : t -> int -> int
val arc_src : t -> int -> int

(** The arc in the opposite direction over the same undirected edge. *)
val arc_rev : int -> int

(** {2 Bigarray CSR access — the hot-path API}

    The returned Bigarrays are the graph's own storage — treat them as
    read-only. Delta-stepping/Dijkstra inner loops index these
    directly. *)

(** Row pointers, length [n+1]: node [u]'s packed adjacency lives at
    indices [ba_adj_start g .{u} .. ba_adj_start g .{u+1} - 1]. *)
val ba_adj_start : t -> ints

(** Packed neighbor ids, length [num_arcs]. *)
val ba_adj_node : t -> ints

(** Packed outgoing arc ids, parallel to {!ba_adj_node}. *)
val ba_adj_arc : t -> ints

(** Per-arc capacities, length [num_arcs]. *)
val ba_arc_caps : t -> floats

(** Arc id -> CSR slot, length [num_arcs], the inverse of
    {!ba_adj_arc}: [ba_adj_arc g .{ba_arc_slot g .{a}} = a]. Per-arc
    state kept in slot order (the SSSP kernels' lengths) is read for arc
    [a] at index [ba_arc_slot g .{a}]. Built once with the graph. *)
val ba_arc_slot : t -> ints

(** Per-edge endpoint columns, length [num_edges]; [ba_edge_u g .{e}] is
    the smaller endpoint id of edge [e] (the normalized record order). *)
val ba_edge_u : t -> ints

val ba_edge_v : t -> ints
val ba_edge_cap : t -> floats

(** [succ g u] lists [(neighbor, outgoing_arc_id)] pairs. Allocates a
    fresh array per call — convenience form, not for hot loops. *)
val succ : t -> int -> (int * int) array

(** [iter_succ f g u] calls [f neighbor arc] for each outgoing arc of
    [u], allocation-free. *)
val iter_succ : (int -> int -> unit) -> t -> int -> unit

val degree : t -> int -> int
val degree_sequence : t -> int array

(** Total capacity counted over directed arcs (2x undirected sum), i.e.,
    the paper's "total link capacity" over uni-directional links. *)
val total_capacity : t -> float

(** Build from an undirected edge list. Raises [Invalid_argument] on
    self-loops, out-of-range nodes, non-positive or non-finite
    capacities, or parallel edges. *)
val of_edges : n:int -> (int * int * float) list -> t

(** [of_edges] with every capacity 1. *)
val of_unit_edges : n:int -> (int * int) list -> t

val has_edge : t -> int -> int -> bool

(** [iter_edges] and [fold_edges] visit edges in id order, building one
    record per edge. *)
val iter_edges : (int -> edge -> unit) -> t -> unit
val fold_edges : ('a -> int -> edge -> 'a) -> 'a -> t -> 'a

(** Copy of the graph with all capacities set to [c]. The CSR index
    Bigarrays are shared with the original. *)
val with_uniform_capacity : t -> float -> t

(** Incremental construction straight into Bigarray columns, for
    large-scale topology generators: no per-edge boxed records, no
    intermediate list. Unlike {!of_edges} there is {b no parallel-edge
    dedup} — callers must guarantee structural uniqueness (every
    generator in [Tb_topo] does). Endpoints are normalized ([u < v]) and
    validated per {!Builder.add}. *)
module Builder : sig
  type graph = t
  type b

  (** [create ?capacity ~n ()] starts a builder for an [n]-node graph.
      [capacity] is an initial edge-capacity hint (arrays double as
      needed). *)
  val create : ?capacity:int -> n:int -> unit -> b

  (** [add b u v cap] appends one undirected edge. Raises
      [Invalid_argument] on self-loops, out-of-range nodes, or
      non-positive or non-finite capacities. *)
  val add : b -> int -> int -> float -> unit

  (** [add b u v 1.0]. *)
  val add_unit : b -> int -> int -> unit

  (** Freeze into a graph. With [~reverse:true] the edge order is
      flipped, matching the order a [List.rev]-free prepend-style
      generator would produce via {!of_edges} — generators ported from
      the list API use this to keep edge ids (and thus CSR layout and
      LP constraint order) bit-identical. *)
  val finish : ?reverse:bool -> b -> graph
end

(** [bigarray_bytes ~nodes ~edges] is the flat-storage footprint in
    bytes of a graph of that size (edge columns + CSR adjacency,
    including the arc-slot map), the
    basis of the catalog's documented memory estimates. *)
val bigarray_bytes : nodes:int -> edges:int -> int

val pp : Format.formatter -> t -> unit
