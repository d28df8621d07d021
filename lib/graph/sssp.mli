(** Single-source shortest paths on the Bigarray CSR layout: the
    delta-stepping / Dial workhorse for datacenter-scale graphs, plus a
    heap Dijkstra over the same flat state for small instances.

    All three traversals fill the same reusable {!state} (distances and
    parent arcs in Bigarrays, so per-source solver state never touches
    the GC heap and is shared across domains without copying) and
    compute bit-identical distances: for a fixed length function the
    shortest-path distances are the unique fixpoint of the Bellman
    equations over IEEE arithmetic, independent of relaxation order.
    Parent arcs are schedule-dependent, so {!delta_stepping} uses a
    frozen-scan schedule (each round relaxes the frontier's arcs from
    the distances its nodes were drained with, in frontier x CSR arc
    order, in one sequential pass) that depends on nothing but the
    graph, the lengths and the source.

    Two length conventions. The kernels ({!dijkstra}, {!delta_stepping})
    take lengths in CSR slot order: [len.{i}] is the length of arc
    [Graph.ba_adj_arc g .{i}], so arc [a]'s length sits at
    [len.{Graph.ba_arc_slot g .{a}}]. {!run} and {!dijkstra_dist} take
    lengths by arc id and gather them into slot order, as do the
    solvers' results and certificates ([Fleischer.result.lengths],
    [Cert]). A length of [infinity] or NaN bans its arc under either
    convention.

    Reachability. After a run, every node it did not reach reads
    [distance = infinity], [reached = false] and [parent_arc = -1], and
    a node is reached iff its distance is finite. A relaxation whose sum
    overflows to [infinity] (finite lengths near [max_float]) therefore
    does not reach its node: before the kernels dropped their per-node
    visit stamps, such a node read as reached at distance [infinity]. *)

type state

(** Scratch for an [n]-node graph; reusable across runs and length
    functions. *)
val create_state : int -> state

(** Heap Dijkstra (lazy-deletion binary heap), the small-instance
    workhorse. [len] is in CSR slot order; [infinity] (or NaN) bans an
    arc. [?dsts] allows early exit: the run stops once every listed node
    (duplicates count once) is settled, and the distance and parent path
    of each listed node are then those of the full tree. Without it (or
    with [[||]]) every reachable node is settled. A node's parent arc is
    the first arc that strictly improves it in heap-pop x CSR order, so
    paths built from parent arcs depend only on the graph, the lengths
    and the source. Raises [Invalid_argument] on a destination out of
    range. *)
val dijkstra :
  ?dsts:int array -> Graph.t -> len:Graph.floats -> src:int -> state -> unit

(** Delta-stepping. Settles distances in buckets of width [delta]
    (default: an eighth of the longest finite arc length, clamped so at
    most 1024 buckets are live); each bucket is relaxed to a fixpoint by
    frozen-scan rounds. [?max_len] passes the longest finite arc length
    when the caller tracks it (saves an O(arcs) scan). Each round is one
    sequential scan. [len] is in CSR slot order. [?target] enables sound
    early exit once the target's distance falls at or below the settled
    frontier; a target out of range raises [Invalid_argument] before the
    run starts. *)
val delta_stepping :
  ?target:int ->
  ?delta:float ->
  ?max_len:float ->
  Graph.t ->
  len:Graph.floats ->
  src:int ->
  state ->
  unit

(** Dial buckets for unit lengths — width-1 buckets degenerate to
    level-synchronous BFS. Distances are hop counts (exact floats),
    bit-identical to Dijkstra with all-ones lengths. [?target] stops
    the run once the target leaves the queue; a target out of range
    raises [Invalid_argument] before the run starts. *)
val dial : ?target:int -> Graph.t -> src:int -> state -> unit

(** Arc count at which {!run} switches from the heap to delta-stepping. *)
val auto_delta_arcs : int

(** Size-dispatching entry point over lengths indexed by arc id: they
    are gathered into a slot-ordered scratch owned by the state (an
    O(arcs) pass per call), then {!dijkstra} runs below
    {!auto_delta_arcs} arcs and {!delta_stepping} at or above it.
    [?parallel] is ignored. *)
val run :
  ?max_len:float ->
  ?parallel:bool ->
  Graph.t ->
  len:Graph.floats ->
  src:int ->
  state ->
  unit

(** Whether [v] was reached by the most recent run. *)
val reached : state -> int -> bool

(** Distance of [v] in the most recent run, [infinity] if unreached. *)
val distance : state -> int -> float

(** [distances_into st ~targets out] writes {!distance} of each node
    [v] of [targets] into [out.{v}]. Hot loops use it (or
    {!weighted_distance_sum}) instead of {!distance}, whose float result
    is boxed on every cross-module call. *)
val distances_into : state -> targets:int array -> Graph.floats -> unit

(** [weighted_distance_sum st ~targets ~weights] is
    [weights.(0) *. distance st targets.(0) +. weights.(1) *. ...],
    summed left to right from [0.0]: one boxed result per call instead
    of one per target. *)
val weighted_distance_sum : state -> targets:int array -> weights:float array -> float

(** Parent arc of [v] in the most recent tree (-1 at the source or when
    unreached). *)
val parent_arc : state -> int -> int

(** Arc ids along the path src -> v in order, [None] if unreached. *)
val path_arcs : Graph.t -> state -> int -> int list option

(** One-shot distances with a closure length function of the arc id
    (tests, non-hot-path callers). *)
val dijkstra_dist : Graph.t -> len:(int -> float) -> src:int -> float array
