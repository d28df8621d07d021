module Graph = Tb_graph.Graph
module Convergence = Tb_obs.Convergence
module A1 = Bigarray.Array1

(* The running maximum length and congestion are exact: lengths and
   flows only grow between renormalizations, so the largest value
   written is the largest present. The push is exported per path: under
   -opaque nothing is inlined across modules, so a per-arc push would
   cost a call per arc (see DESIGN.md, "Allocation-free hot path").

   Lengths are stored in CSR slot order ([Graph.ba_arc_slot]), the
   order the SSSP kernels read them in; flows, capacities and paths stay
   arc-indexed, so arc [a]'s length is [len.{slot.{a}}]. *)

type cells = {
  mutable eps : float;
  mutable remaining : float;
  mutable max_len : float;
  mutable congestion : float;
  mutable lower : float;
  mutable upper : float;
  mutable flow_scale : float;
}

type t = {
  cap : Graph.floats;
  slot : Graph.ints;
  len : Graph.floats;
  flow : Graph.floats;
  best_len : Graph.floats;
  best_flow : Graph.floats;
  demand : float array;
  sigma : float;
  c : cells;
  mutable phases : int;
}

let zeros n =
  let a = Graph.make_floats n in
  A1.fill a 0.0;
  a

let create g ~eps ~(load : Graph.floats) ~warm_lengths cs =
  (* With eps outside (0, 1) a length is stale right after its refresh,
     so a phase would never end. *)
  if not (eps > 0.0 && eps < 1.0) then
    invalid_arg "Mwu.create: eps must lie in (0, 1)";
  let num_arcs = Graph.num_arcs g in
  let cap = Graph.ba_arc_caps g in
  let slot = Graph.ba_arc_slot g in
  let worst = ref 0.0 in
  for a = 0 to num_arcs - 1 do
    let r = A1.get load a /. A1.get cap a in
    if r > !worst then worst := r
  done;
  let sigma = if !worst > 0.0 then 1.0 /. !worst else 1.0 in
  let len = Graph.make_floats num_arcs in
  (* Both bounds hold for any positive lengths, so a warm start can only
     change how fast the bracket closes, never whether it is valid. It
     is rescaled to a maximum of 1.0, far from the renormalization
     ceiling; the dual bound is scale-invariant. *)
  (match warm_lengths with
  | Some w
    when Array.length w = num_arcs
         && Array.for_all (fun l -> Float.is_finite l && l > 0.0) w ->
    let wmax = Array.fold_left Float.max 0.0 w in
    for a = 0 to num_arcs - 1 do A1.set len (A1.get slot a) (w.(a) /. wmax) done
  | _ ->
    for a = 0 to num_arcs - 1 do
      A1.set len (A1.get slot a) (1.0 /. A1.get cap a)
    done);
  let c =
    { eps; remaining = 0.0; max_len = 0.0; congestion = 0.0; lower = 0.0;
      upper = infinity; flow_scale = 0.0 }
  in
  for a = 0 to num_arcs - 1 do
    if A1.get len a > c.max_len then c.max_len <- A1.get len a
  done;
  let best_len = Graph.make_floats num_arcs in
  A1.blit len best_len;
  { cap; slot; len; flow = zeros num_arcs; best_len; best_flow = zeros num_arcs;
    demand = Array.map (fun d -> d.Commodity.demand *. sigma) cs; sigma; c;
    phases = 0 }

(* The path's arcs are read through a bounds check once, in the
   bottleneck pass; the push pass then indexes the same arcs unchecked. *)
let route t path n =
  let cap = t.cap and slot = t.slot and flow = t.flow and len = t.len in
  let c = t.c in
  let bottleneck = ref infinity in
  for k = 0 to n - 1 do
    let x = A1.get cap path.(k) in
    if x < !bottleneck then bottleneck := x
  done;
  let f = if c.remaining <= !bottleneck then c.remaining else !bottleneck in
  for k = 0 to n - 1 do
    let a = Array.unsafe_get path k in
    let ca = A1.unsafe_get cap a in
    let fa = A1.unsafe_get flow a +. f in
    A1.unsafe_set flow a fa;
    let r = fa /. ca in
    if r > c.congestion then c.congestion <- r;
    let i = A1.unsafe_get slot a in
    let l = A1.unsafe_get len i *. (1.0 +. (c.eps *. f /. ca)) in
    A1.unsafe_set len i l;
    if l > c.max_len then c.max_len <- l
  done;
  c.remaining <- c.remaining -. f

let renormalize t =
  let c = t.c in
  if c.max_len > 1e150 then begin
    let inv = 1.0 /. c.max_len in
    let m = ref 0.0 in
    for a = 0 to A1.dim t.len - 1 do
      let l = A1.unsafe_get t.len a *. inv in
      A1.unsafe_set t.len a l;
      if l > !m then m := l
    done;
    c.max_len <- !m
  end

let end_phase t =
  t.phases <- t.phases + 1;
  renormalize t;
  let c = t.c in
  if c.congestion > 0.0 then begin
    let lower = float_of_int t.phases /. c.congestion in
    if lower > c.lower then begin
      c.lower <- lower;
      A1.blit t.flow t.best_flow;
      c.flow_scale <- 1.0 /. c.congestion
    end
  end

(* D(l) is summed in arc order, whatever order [len] is stored in. *)
let dual_check t ~alpha on_check =
  let dsum = ref 0.0 in
  for a = 0 to A1.dim t.len - 1 do
    dsum :=
      !dsum +. (A1.unsafe_get t.len (A1.unsafe_get t.slot a) *. A1.unsafe_get t.cap a)
  done;
  let c = t.c in
  let ub = if alpha > 0.0 then !dsum /. alpha else infinity in
  if ub < c.upper then begin
    c.upper <- ub;
    A1.blit t.len t.best_len
  end;
  Convergence.check on_check ~phase:t.phases ~lower:c.lower ~upper:c.upper
    ~eps:c.eps

let converged t ~solver ~tol ~max_phases =
  let c = t.c in
  if c.upper < infinity && c.lower > 0.0 && c.upper /. c.lower <= 1.0 +. tol
  then true
  else if t.phases >= max_phases then begin
    Logs.warn (fun m ->
        m "%s: phase cap %d hit (gap %.3f); result is still bracketed" solver
          max_phases
          ((c.upper /. c.lower) -. 1.0));
    true
  end
  else false

(* Undo the demand pre-scaling: lambda(d) = lambda(d') * sigma. *)
let lower t = t.c.lower *. t.sigma
let upper t = t.c.upper *. t.sigma
