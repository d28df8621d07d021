(* Dense two-phase primal simplex.

   Internals: the problem is brought to equational standard form
       minimize  c.x   s.t.  A x = b,  x >= 0,  b >= 0
   by adding one slack/surplus column per inequality and one artificial
   column per row that lacks an obvious basic column. Phase 1 minimizes
   the sum of artificials; phase 2 the real objective (negated, since the
   public interface maximizes).

   Pivoting: Dantzig's rule (most negative reduced cost) with a switch to
   Bland's rule — which guarantees termination in the presence of
   degeneracy — after an iteration budget, or earlier when a run of
   consecutive degenerate (zero-ratio) pivots signals cycling. Ratios
   are guarded by an epsilon to tolerate float noise.

   The tableau is dense, but its rows are mostly zeros: a pivot divides
   only the pivot row's nonzero entries, lists their columns once, and
   row elimination and the objective update touch only those columns.
   A pivot costs O(columns) for the pricing scan and that listing plus
   O(rows hit x pivot-row nonzeros) for the elimination, where a row is
   hit when its pivot-column entry is nonzero. Skipping a zero column
   [j] only skips [0.0 /. p] and [r.(j) -. f *. 0.0], which leave every
   value unchanged; each nonzero entry gets the same float operations in
   the same order as a full-width update, so pivots, bases, values,
   assignments and duals are bit-identical to the dense loop. The one
   thing a skip can change is the sign of an exact zero: no comparison
   sees it (ratios divide only by entries above [eps]), though a zero
   assignment entry or dual may come out as -0.0 instead of 0.0.

   Callers: the service's exact rung ([Tb_flow.Exact], the edge LP),
   the column-generation master ([Tb_flow.Colgen], the golden oracle)
   and Kodialam's TM LP ([Tb_tm.Synthetic.kodialam]); a few thousand
   columns at most. *)

let eps = 1e-9

exception Cycling of int
(* Hard iteration cap exceeded even under Bland's rule: the payload is
   the pivot count. Bland's rule terminates in exact arithmetic, so
   reaching this means float noise keeps flipping reduced-cost signs;
   callers treat it as a recoverable solver failure. *)

module Metrics = Tb_obs.Metrics
module Trace = Tb_obs.Trace

let m_solves = Metrics.counter "simplex.solves"
let m_pivots = Metrics.counter "simplex.pivots"
let m_phase1_pivots = Metrics.counter "simplex.phase1_pivots"
let m_phase2_pivots = Metrics.counter "simplex.phase2_pivots"
let t_solve = Metrics.timer "simplex.solve"
let t_phase1 = Metrics.timer "simplex.phase1"
let t_phase2 = Metrics.timer "simplex.phase2"
let h_pivots = Metrics.histogram "simplex.pivots_per_solve"

type tableau = {
  m : int; (* rows *)
  ncols : int; (* structural + slack + artificial columns *)
  a : float array array; (* m rows x (ncols + 1), last col = rhs *)
  obj : float array; (* reduced-cost row, length ncols + 1 *)
  basis : int array; (* basic column of each row *)
  nz : int array; (* scratch: the pivot row's nonzero columns *)
}

(* [r -= r.(col) * arow] over the pivot row's nonzero columns
   [nz.(0 .. nnz - 1)]. Unrolled by four: the updates are independent,
   so unrolling changes no bit, and it saves three of every four loop
   tests and safepoint polls (about a third of the elimination time on
   x86-64). *)
let eliminate r ~col ~arow ~nz ~nnz =
  let f = r.(col) in
  if abs_float f > 0.0 then begin
    let k = ref 0 in
    while !k + 3 < nnz do
      let k0 = !k in
      let j0 = Array.unsafe_get nz k0 and j1 = Array.unsafe_get nz (k0 + 1) in
      let j2 = Array.unsafe_get nz (k0 + 2) in
      let j3 = Array.unsafe_get nz (k0 + 3) in
      Array.unsafe_set r j0
        (Array.unsafe_get r j0 -. (f *. Array.unsafe_get arow j0));
      Array.unsafe_set r j1
        (Array.unsafe_get r j1 -. (f *. Array.unsafe_get arow j1));
      Array.unsafe_set r j2
        (Array.unsafe_get r j2 -. (f *. Array.unsafe_get arow j2));
      Array.unsafe_set r j3
        (Array.unsafe_get r j3 -. (f *. Array.unsafe_get arow j3));
      k := k0 + 4
    done;
    for k = !k to nnz - 1 do
      let j = Array.unsafe_get nz k in
      Array.unsafe_set r j
        (Array.unsafe_get r j -. (f *. Array.unsafe_get arow j))
    done
  end

let pivot t ~row ~col =
  Metrics.incr m_pivots;
  let arow = t.a.(row) in
  let p = arow.(col) in
  let nz = t.nz in
  (* Normalize the pivot row and list its nonzero columns. *)
  let nnz = ref 0 in
  for j = 0 to t.ncols do
    let v = arow.(j) in
    if v <> 0.0 then begin
      arow.(j) <- v /. p;
      nz.(!nnz) <- j;
      incr nnz
    end
  done;
  let nnz = !nnz in
  for i = 0 to t.m - 1 do
    if i <> row then eliminate t.a.(i) ~col ~arow ~nz ~nnz
  done;
  eliminate t.obj ~col ~arow ~nz ~nnz;
  t.basis.(row) <- col

(* One simplex phase on [t] in which only columns [0, legal) may enter.
   Returns [`Optimal] or [`Unbounded]. [phase_counter] attributes
   pivots to the phase-1/phase-2 split in the metrics registry; [check]
   runs every [check_stride] pivots (deadline enforcement). *)
let check_stride = 256

let run_phase t ~legal ~phase_counter ~check =
  let w = t.ncols in
  let iter = ref 0 in
  (* Generous budget before switching to Bland, then a hard cap. *)
  let dantzig_budget = 20 * (t.m + w) in
  let hard_cap = 400 * (t.m + w) + 10_000 in
  (* Cycling under Dantzig shows up as an unbroken run of degenerate
     (zero-ratio) pivots; switch to Bland as soon as one is detected
     instead of burning the whole Dantzig budget on a loop. *)
  let degenerate_streak = ref 0 in
  let streak_cap = t.m + 16 in
  let result = ref None in
  while !result = None do
    incr iter;
    if !iter mod check_stride = 0 then check ();
    if !iter > hard_cap then raise (Cycling !iter);
    let bland = !iter > dantzig_budget || !degenerate_streak > streak_cap in
    (* Entering column. *)
    let enter = ref (-1) in
    let best = ref (-.eps) in
    (try
       for j = 0 to legal - 1 do
         if t.obj.(j) < -.eps then
           if bland then begin
             enter := j;
             raise Exit
           end
           else if t.obj.(j) < !best then begin
             best := t.obj.(j);
             enter := j
           end
       done
     with Exit -> ());
    if !enter < 0 then result := Some `Optimal
    else begin
      let col = !enter in
      (* Leaving row: min ratio; Bland tie-break on basis index. *)
      let leave = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to t.m - 1 do
        let aij = t.a.(i).(col) in
        if aij > eps then begin
          let ratio = t.a.(i).(w) /. aij in
          if
            ratio < !best_ratio -. eps
            || (ratio < !best_ratio +. eps
               && !leave >= 0
               && t.basis.(i) < t.basis.(!leave))
          then begin
            best_ratio := ratio;
            leave := i
          end
        end
      done;
      if !leave < 0 then result := Some `Unbounded
      else begin
        if !best_ratio <= eps then incr degenerate_streak
        else degenerate_streak := 0;
        Metrics.incr phase_counter;
        pivot t ~row:!leave ~col
      end
    end
  done;
  Option.get !result

let solve ?(on_check = fun () -> ()) (p : Lp.problem) =
  Metrics.incr m_solves;
  let pivots_before = Metrics.count m_pivots in
  Fun.protect ~finally:(fun () ->
      Metrics.observe h_pivots
        (float_of_int (Metrics.count m_pivots - pivots_before)))
  @@ fun () ->
  Metrics.time t_solve @@ fun () ->
  Trace.span "simplex.solve"
    ~args:
      [ ("vars", Tb_obs.Json.Int p.num_vars);
        ("rows", Tb_obs.Json.Int (List.length p.rows)) ]
  @@ fun () ->
  let n = p.num_vars in
  let rows = Array.of_list p.rows in
  let m = Array.length rows in
  (* Column layout: [0, n) structural; then one slack per inequality;
     then artificials. *)
  let num_slack =
    Array.fold_left
      (fun acc r -> match r.Lp.op with Lp.Le | Lp.Ge -> acc + 1 | Lp.Eq -> acc)
      0 rows
  in
  (* Flip rows so rhs >= 0 (this may turn Le into Ge and vice versa). *)
  let flipped =
    Array.map
      (fun r ->
        if r.Lp.rhs < 0.0 then
          {
            Lp.coeffs = List.map (fun (v, c) -> (v, -.c)) r.Lp.coeffs;
            op =
              (match r.Lp.op with
              | Lp.Le -> Lp.Ge
              | Lp.Ge -> Lp.Le
              | Lp.Eq -> Lp.Eq);
            rhs = -.r.Lp.rhs;
          }
        else r)
      rows
  in
  (* A slack column with +1 coefficient can serve as the initial basis of
     a Le row; Ge and Eq rows need an artificial. *)
  let num_artificial =
    Array.fold_left
      (fun acc r ->
        match r.Lp.op with Lp.Le -> acc | Lp.Ge | Lp.Eq -> acc + 1)
      0 flipped
  in
  let ncols = n + num_slack + num_artificial in
  let a = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
  let basis = Array.make m (-1) in
  let slack_idx = ref n in
  let art_idx = ref (n + num_slack) in
  (* Reference column per row: a column with a +1 unit coefficient in
     that row only (the slack for Le, the artificial for Ge/Eq). Its
     phase-2 reduced cost reads off the row's dual value. *)
  let ref_col = Array.make m (-1) in
  Array.iteri
    (fun i r ->
      List.iter (fun (v, c) -> a.(i).(v) <- a.(i).(v) +. c) r.Lp.coeffs;
      a.(i).(ncols) <- r.Lp.rhs;
      (match r.Lp.op with
      | Lp.Le ->
        a.(i).(!slack_idx) <- 1.0;
        basis.(i) <- !slack_idx;
        ref_col.(i) <- !slack_idx;
        incr slack_idx
      | Lp.Ge ->
        a.(i).(!slack_idx) <- -1.0;
        incr slack_idx;
        a.(i).(!art_idx) <- 1.0;
        basis.(i) <- !art_idx;
        ref_col.(i) <- !art_idx;
        incr art_idx
      | Lp.Eq ->
        a.(i).(!art_idx) <- 1.0;
        basis.(i) <- !art_idx;
        ref_col.(i) <- !art_idx;
        incr art_idx))
    flipped;
  let t =
    { m; ncols; a; obj = Array.make (ncols + 1) 0.0; basis;
      nz = Array.make (ncols + 1) 0 }
  in
  (* ---- Phase 1: minimize sum of artificials. ---- *)
  if num_artificial > 0 then begin
    for j = n + num_slack to ncols - 1 do
      t.obj.(j) <- 1.0
    done;
    (* Price out the artificial basis (their reduced costs must be 0). *)
    for i = 0 to m - 1 do
      if basis.(i) >= n + num_slack then
        for j = 0 to ncols do
          t.obj.(j) <- t.obj.(j) -. t.a.(i).(j)
        done
    done;
    match
      Metrics.time t_phase1 (fun () ->
          run_phase t ~legal:ncols ~phase_counter:m_phase1_pivots
            ~check:on_check)
    with
    | `Unbounded -> failwith "Simplex: phase 1 unbounded (bug)"
    | `Optimal -> ()
  end;
  let phase1_value = if num_artificial > 0 then -.t.obj.(ncols) else 0.0 in
  if phase1_value > 1e-6 then Lp.Infeasible
  else begin
    (* Drive any residual artificial out of the basis; if its row is all
       zeros in legal columns the row is redundant and stays. *)
    for i = 0 to m - 1 do
      if t.basis.(i) >= n + num_slack then begin
        let found = ref (-1) in
        for j = 0 to n + num_slack - 1 do
          if !found < 0 && abs_float t.a.(i).(j) > 1e-7 then found := j
        done;
        if !found >= 0 then pivot t ~row:i ~col:!found
      end
    done;
    (* ---- Phase 2: maximize the real objective (minimize its negation),
       artificial columns forbidden. ---- *)
    Array.fill t.obj 0 (ncols + 1) 0.0;
    List.iter (fun (v, c) -> t.obj.(v) <- t.obj.(v) -. c) p.objective;
    for i = 0 to m - 1 do
      let b = t.basis.(i) in
      let f = t.obj.(b) in
      if abs_float f > 0.0 then
        for j = 0 to ncols do
          t.obj.(j) <- t.obj.(j) -. (f *. t.a.(i).(j))
        done
    done;
    match
      Metrics.time t_phase2 (fun () ->
          run_phase t ~legal:(n + num_slack) ~phase_counter:m_phase2_pivots
            ~check:on_check)
    with
    | `Unbounded -> Lp.Unbounded
    | `Optimal ->
      let x = Array.make n 0.0 in
      for i = 0 to m - 1 do
        if t.basis.(i) < n then x.(t.basis.(i)) <- t.a.(i).(ncols)
      done;
      (* Clamp float dust. *)
      Array.iteri (fun i v -> if v < 0.0 && v > -1e-9 then x.(i) <- 0.0) x;
      (* Duals: the reduced cost of row i's reference column equals the
         maximization dual; rows flipped for rhs sign change theirs
         back. *)
      let duals =
        Array.init m (fun i ->
            let y = t.obj.(ref_col.(i)) in
            if rows.(i).Lp.rhs < 0.0 then -.y else y)
      in
      Lp.Optimal { Lp.value = Lp.objective_value p x; assignment = x; duals }
  end
