(** Yen's algorithm for the K shortest loopless paths. *)

type path = { arcs : int list; nodes : int list; length : float }

(** Up to [k] loopless paths (fewer if the graph has fewer simple
    paths): the unique first [k] under the total order (length, node
    sequence), with every tie — candidate selection and spur extraction
    alike — broken by that order. The result is therefore a pure
    function of the (graph, lengths, bans) triple: bit-identical across
    runs, SSSP workhorses, and {!repair_deleted}. [banned] arcs (e.g.
    both directions of a deleted edge) are excluded from every path.
    Requires strictly positive finite lengths on non-banned arcs. *)
val k_shortest :
  ?banned:int list ->
  Graph.t ->
  len:(int -> float) ->
  src:int ->
  dst:int ->
  k:int ->
  path list

(** [repair_deleted g ~len ~banned ~src ~dst ~k prev] repairs a path
    set [prev] — previously computed by {!k_shortest} with the same
    [g], [len], [k] and no bans — after the arcs in [banned] were
    deleted. If no path of [prev] uses a banned arc, [prev] is
    returned as-is (it is still the first-[k] of the restricted
    universe); otherwise the set is recomputed under the bans. Either
    way the result is bit-identical to a from-scratch
    [k_shortest ~banned] call. *)
val repair_deleted :
  Graph.t ->
  len:(int -> float) ->
  banned:int list ->
  src:int ->
  dst:int ->
  k:int ->
  path list ->
  path list
