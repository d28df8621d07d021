(** Yen's algorithm for the K shortest loopless paths. *)

type path = { arcs : int list; nodes : int list; length : float }

(** Up to [k] loopless paths (fewer if the graph has fewer simple
    paths): the unique first [k] under the total order (length, node
    sequence), with every tie — candidate selection and spur extraction
    alike — broken by that order. The result is therefore a pure
    function of the (graph, lengths) pair: bit-identical across runs
    and SSSP workhorses. Requires strictly positive finite lengths. *)
val k_shortest :
  Graph.t ->
  len:(int -> float) ->
  src:int ->
  dst:int ->
  k:int ->
  path list
