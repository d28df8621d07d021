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
    frozen-scan schedule (generate candidate relaxations against frozen
    distances in fixed-size chunks, then apply sequentially in chunk
    order) that is bit-identical for any domain count, including the
    sequential count of 1. *)

type state

(** Scratch for an [n]-node graph; reusable across runs and length
    functions. *)
val create_state : int -> state

(** Heap Dijkstra (lazy-deletion binary heap), the small-instance
    workhorse. [len] is indexed by arc id; [infinity] (or NaN) bans an
    arc. [?target] allows early exit once that node is settled. *)
val dijkstra :
  ?target:int -> Graph.t -> len:Graph.floats -> src:int -> state -> unit

(** Delta-stepping. Settles distances in buckets of width [delta]
    (default: an eighth of the longest finite arc length, clamped so at
    most 1024 buckets are live); each bucket is relaxed to a fixpoint by
    frozen-scan rounds. [?max_len] passes the longest finite arc length
    when the caller tracks it (saves an O(arcs) scan). With
    [~parallel:true] candidate generation fans out across domains via
    [Tb_prelude.Parallel] (still bit-identical for any domain count).
    [?target] enables sound early exit once the target's distance falls
    at or below the settled frontier. *)
val delta_stepping :
  ?target:int ->
  ?delta:float ->
  ?max_len:float ->
  ?parallel:bool ->
  Graph.t ->
  len:Graph.floats ->
  src:int ->
  state ->
  unit

(** Dial buckets for unit lengths — width-1 buckets degenerate to
    level-synchronous BFS. Distances are hop counts (exact floats),
    bit-identical to Dijkstra with all-ones lengths. *)
val dial : ?target:int -> Graph.t -> src:int -> state -> unit

(** Arc count at which {!run} switches from the heap to delta-stepping. *)
val auto_delta_arcs : int

(** Size-dispatching entry point: {!dijkstra} below {!auto_delta_arcs}
    arcs, {!delta_stepping} at or above it. *)
val run :
  ?target:int ->
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

(** [distances_into st out] writes {!distance} of every node into
    [out.{0 .. n-1}] in one pass. Hot loops use it (or
    {!weighted_distance_sum}) instead of {!distance}, whose float result
    is boxed on every cross-module call. *)
val distances_into : state -> Graph.floats -> unit

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

(** One-shot distances with a closure length function (tests,
    non-hot-path callers). *)
val dijkstra_dist : Graph.t -> len:(int -> float) -> src:int -> float array
