(** Unweighted graph traversals. *)

(** Hop distances from [src]; unreachable nodes get [-1]. *)
val bfs_dist : Graph.t -> int -> int array

(** [bfs_into g src ~dist ~queue] is {!bfs_dist} into caller-owned
    arrays of length [num_nodes g], allocating nothing: it overwrites
    [dist] and lists the reached nodes in [queue] in BFS order, i.e. by
    non-decreasing distance. Returns how many nodes were reached. *)
val bfs_into : Graph.t -> int -> dist:int array -> queue:int array -> int

val is_connected : Graph.t -> bool

(** All-pairs hop distances, [apsp g].(u).(v). O(n*m). *)
val apsp : Graph.t -> int array array

(** Raises [Invalid_argument] if the graph is disconnected. *)
val diameter : Graph.t -> int

(** Mean hop distance over ordered distinct pairs; raises on
    disconnected input. *)
val mean_distance : Graph.t -> float

(** [(k, comp)] where [k] is the number of connected components and
    [comp.(u)] the component id of [u]. *)
val components : Graph.t -> int * int array
