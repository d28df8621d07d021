(* Immutable undirected graphs with edge capacities, in a flat CSR
   layout backed by Bigarrays.

   Conventions shared across the framework:
   - Nodes are [0, n).
   - Each undirected edge [e] with endpoints (u, v) and capacity [c]
     induces two directed arcs: arc [2e] = u->v and arc [2e+1] = v->u,
     each of capacity [c]. Flow algorithms work on arcs; topology and cut
     code works on undirected edges.
   - Simple graphs only: no self-loops, no parallel edges. Topology
     constructors are expected to deduplicate.

   Memory layout: the only storage is a set of Bigarrays — per-edge
   endpoint/capacity columns (e_u/e_v/e_cap) and the CSR adjacency (row
   pointers plus packed neighbor ids, arc ids and arc capacities, and
   the arc id -> CSR slot map that lets solvers keep per-arc lengths in
   slot order, next to the neighbor ids the SSSP kernels walk).
   Bigarrays live outside the OCaml heap: a 100k-node, 10M-edge fat-tree
   costs ~88 bytes/edge of flat storage that the GC never scans and that
   domains share without copying. The [int] and [float64] element kinds
   are used throughout because those are the two kinds the compiler
   reads back unboxed (int32/int64 elements would box on every access in
   the Dijkstra/delta-stepping inner loops). Edge records ([edge],
   [edges], [iter_edges]) are built on demand from the columns; loops
   over every edge that must not allocate index the columns directly. *)

module A1 = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

let make_ints n : ints = A1.create Bigarray.int Bigarray.c_layout n
let make_floats n : floats = A1.create Bigarray.float64 Bigarray.c_layout n

type edge = { u : int; v : int; cap : float }

type t = {
  n : int;
  m : int;
  e_u : ints; (* length m, endpoint with the smaller id *)
  e_v : ints; (* length m *)
  e_cap : floats; (* length m *)
  row_start : ints; (* length n+1, CSR row pointers *)
  col_node : ints; (* length 2m, packed neighbor ids *)
  col_arc : ints; (* length 2m, packed outgoing arc ids *)
  cap_arc : floats; (* length 2m, capacity per directed arc *)
  arc_slot : ints; (* length 2m, arc id -> its index in col_node/col_arc *)
}

let num_nodes g = g.n
let num_edges g = g.m
let num_arcs g = 2 * g.m

(* {2 Bigarray accessors — the hot-path API} *)

let ba_adj_start g = g.row_start
let ba_adj_node g = g.col_node
let ba_adj_arc g = g.col_arc
let ba_arc_caps g = g.cap_arc
let ba_arc_slot g = g.arc_slot
let ba_edge_u g = g.e_u
let ba_edge_v g = g.e_v
let ba_edge_cap g = g.e_cap

let arc_cap g a = A1.get g.cap_arc a

let arc_endpoints g a =
  let e = a lsr 1 in
  let u = A1.get g.e_u e and v = A1.get g.e_v e in
  if a land 1 = 0 then (u, v) else (v, u)

let arc_dst g a =
  let e = a lsr 1 in
  if a land 1 = 0 then A1.get g.e_v e else A1.get g.e_u e

let arc_src g a =
  let e = a lsr 1 in
  if a land 1 = 0 then A1.get g.e_u e else A1.get g.e_v e

(* The opposite-direction arc over the same undirected edge. *)
let arc_rev a = a lxor 1

let edge g e = { u = A1.get g.e_u e; v = A1.get g.e_v e; cap = A1.get g.e_cap e }

(* A fresh record array per call, like [succ]; loops that must not
   allocate index the edge columns instead. *)
let edges g = Array.init g.m (fun e -> edge g e)

(* Allocating convenience view of one CSR row; hot loops index the CSR
   Bigarrays directly instead. *)
let succ g u =
  let lo = A1.get g.row_start u and hi = A1.get g.row_start (u + 1) in
  Array.init (hi - lo) (fun i ->
      (A1.get g.col_node (lo + i), A1.get g.col_arc (lo + i)))

let iter_succ f g u =
  for i = A1.get g.row_start u to A1.get g.row_start (u + 1) - 1 do
    f (A1.get g.col_node i) (A1.get g.col_arc i)
  done

let degree g u = A1.get g.row_start (u + 1) - A1.get g.row_start u
let degree_sequence g = Array.init g.n (fun u -> degree g u)

let total_capacity g =
  (* Sum over directed arcs, i.e., 2x the undirected capacity: this is the
     "total link capacity" of the volumetric bound in the paper (it counts
     uni-directional links). *)
  let s = ref 0.0 in
  for e = 0 to g.m - 1 do
    s := !s +. A1.get g.e_cap e
  done;
  2.0 *. !s

(* Build the CSR Bigarrays from filled endpoint/capacity columns. *)
let build_csr ~n ~m ~(e_u : ints) ~(e_v : ints) ~(e_cap : floats) =
  let m2 = 2 * m in
  let row_start = make_ints (n + 1) in
  A1.fill row_start 0;
  for e = 0 to m - 1 do
    let u = A1.unsafe_get e_u e and v = A1.unsafe_get e_v e in
    A1.unsafe_set row_start (u + 1) (A1.unsafe_get row_start (u + 1) + 1);
    A1.unsafe_set row_start (v + 1) (A1.unsafe_get row_start (v + 1) + 1)
  done;
  for u = 0 to n - 1 do
    A1.unsafe_set row_start (u + 1)
      (A1.unsafe_get row_start (u + 1) + A1.unsafe_get row_start u)
  done;
  let col_node = make_ints m2 and col_arc = make_ints m2 in
  let cap_arc = make_floats m2 and arc_slot = make_ints m2 in
  let fill = make_ints (n + 1) in
  A1.blit row_start fill;
  for e = 0 to m - 1 do
    let u = A1.unsafe_get e_u e and v = A1.unsafe_get e_v e in
    let c = A1.unsafe_get e_cap e in
    let iu = A1.unsafe_get fill u in
    A1.unsafe_set col_node iu v;
    A1.unsafe_set col_arc iu (2 * e);
    A1.unsafe_set arc_slot (2 * e) iu;
    A1.unsafe_set fill u (iu + 1);
    let iv = A1.unsafe_get fill v in
    A1.unsafe_set col_node iv u;
    A1.unsafe_set col_arc iv ((2 * e) + 1);
    A1.unsafe_set arc_slot ((2 * e) + 1) iv;
    A1.unsafe_set fill v (iv + 1);
    A1.unsafe_set cap_arc (2 * e) c;
    A1.unsafe_set cap_arc ((2 * e) + 1) c
  done;
  { n; m; e_u; e_v; e_cap; row_start; col_node; col_arc; cap_arc; arc_slot }

let of_edges ~n edge_list =
  let m = List.length edge_list in
  let seen = Hashtbl.create (2 * m) in
  let e_u = make_ints m and e_v = make_ints m in
  let e_cap = make_floats m in
  List.iteri
    (fun i (u, v, c) ->
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      if u < 0 || v < 0 || u >= n || v >= n then
        invalid_arg "Graph.of_edges: node out of range";
      if not (Float.is_finite c) then
        invalid_arg "Graph.of_edges: non-finite capacity";
      if c <= 0.0 then invalid_arg "Graph.of_edges: non-positive capacity";
      let u, v = if u < v then (u, v) else (v, u) in
      if Hashtbl.mem seen (u, v) then
        invalid_arg "Graph.of_edges: parallel edge";
      Hashtbl.add seen (u, v) ();
      A1.unsafe_set e_u i u;
      A1.unsafe_set e_v i v;
      A1.unsafe_set e_cap i c)
    edge_list;
  build_csr ~n ~m ~e_u ~e_v ~e_cap

let of_unit_edges ~n pairs =
  of_edges ~n (List.map (fun (u, v) -> (u, v, 1.0)) pairs)

let has_edge g u v =
  let hi = A1.get g.row_start (u + 1) in
  let rec scan i = i < hi && (A1.get g.col_node i = v || scan (i + 1)) in
  scan (A1.get g.row_start u)

let iter_edges f g =
  for e = 0 to g.m - 1 do
    f e (edge g e)
  done

let fold_edges f acc g =
  let r = ref acc in
  iter_edges (fun i e -> r := f !r i e) g;
  !r

(* Re-cap every edge. Used to build unit-capacity views. The CSR index
   Bigarrays are shared with the original; only capacities change. *)
let with_uniform_capacity g c =
  let e_cap = make_floats g.m in
  A1.fill e_cap c;
  let cap_arc = make_floats (2 * g.m) in
  A1.fill cap_arc c;
  { g with e_cap; cap_arc }

(* {2 Builder — incremental construction for scale generators} *)

module Builder = struct
  type graph = t

  type b = {
    bn : int;
    mutable bm : int;
    mutable bu : ints;
    mutable bv : ints;
    mutable bc : floats;
  }

  let create ?(capacity = 1024) ~n () =
    if n < 0 then invalid_arg "Graph.Builder.create: negative n";
    let cap = max 16 capacity in
    { bn = n; bm = 0; bu = make_ints cap; bv = make_ints cap; bc = make_floats cap }

  let grow b =
    let cap = A1.dim b.bu in
    let cap' = 2 * cap in
    let bu = make_ints cap' and bv = make_ints cap' in
    let bc = make_floats cap' in
    A1.blit b.bu (A1.sub bu 0 cap);
    A1.blit b.bv (A1.sub bv 0 cap);
    A1.blit b.bc (A1.sub bc 0 cap);
    b.bu <- bu;
    b.bv <- bv;
    b.bc <- bc

  let add b u v c =
    if u = v then invalid_arg "Graph.Builder.add: self-loop";
    if u < 0 || v < 0 || u >= b.bn || v >= b.bn then
      invalid_arg "Graph.Builder.add: node out of range";
    if not (Float.is_finite c) then
      invalid_arg "Graph.Builder.add: non-finite capacity";
    if c <= 0.0 then invalid_arg "Graph.Builder.add: non-positive capacity";
    if b.bm = A1.dim b.bu then grow b;
    let i = b.bm in
    (* Normalize like [of_edges]: the record field [u] is the smaller id. *)
    let u, v = if u < v then (u, v) else (v, u) in
    A1.unsafe_set b.bu i u;
    A1.unsafe_set b.bv i v;
    A1.unsafe_set b.bc i c;
    b.bm <- i + 1

  let add_unit b u v = add b u v 1.0

  let finish ?(reverse = false) b =
    let m = b.bm in
    let e_u = make_ints m and e_v = make_ints m in
    let e_cap = make_floats m in
    if reverse then
      for i = 0 to m - 1 do
        let j = m - 1 - i in
        A1.unsafe_set e_u i (A1.unsafe_get b.bu j);
        A1.unsafe_set e_v i (A1.unsafe_get b.bv j);
        A1.unsafe_set e_cap i (A1.unsafe_get b.bc j)
      done
    else begin
      A1.blit (A1.sub b.bu 0 m) e_u;
      A1.blit (A1.sub b.bv 0 m) e_v;
      A1.blit (A1.sub b.bc 0 m) e_cap
    end;
    build_csr ~n:b.bn ~m ~e_u ~e_v ~e_cap
end

(* Flat memory footprint of the Bigarray storage for a graph with
   [nodes]/[edges]: edge columns (2 ints + 1 float) plus CSR (row
   pointers; neighbor ids, arc ids, arc capacities and arc slots, 2m
   each) at 8 bytes per element. *)
let bigarray_bytes ~nodes ~edges =
  (8 * 3 * edges) + (8 * (nodes + 1)) + (8 * 4 * 2 * edges)

let pp ppf g = Fmt.pf ppf "graph(n=%d, m=%d)" g.n g.m
