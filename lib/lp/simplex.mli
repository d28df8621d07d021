(** Dense two-phase primal simplex (Dantzig pivoting with a Bland
    fallback, switched early when a degenerate-pivot streak signals
    cycling). Exact reference solver for small LPs. Its callers are the
    service's exact rung ([Tb_flow.Exact], the edge LP), the
    column-generation master ([Tb_flow.Colgen]) and Kodialam's
    traffic-matrix LP ([Tb_tm.Synthetic.kodialam]).

    A pivot updates only the pivot row's nonzero columns: it costs
    O(columns) for pricing and normalization plus O(rows hit x pivot-row
    nonzeros) for elimination. The skipped operations are [0.0 /. p] and
    [x -. f *. 0.0], so results are bit-identical to a full-width update
    except, possibly, for the sign of an exact zero.

    Metrics: counters [simplex.solves], [simplex.pivots],
    [simplex.phase1_pivots], [simplex.phase2_pivots]; timers
    [simplex.solve], [simplex.phase1], [simplex.phase2]. *)

(** Hard pivot cap exceeded even under Bland's rule (float-noise
    cycling); the payload is the pivot count. Callers should treat this
    as a recoverable solver failure. *)
exception Cycling of int

(** Solve a maximization problem over nonnegative variables.
    @param on_check invoked every few hundred pivots; may raise to
    abort the solve (deadline enforcement). *)
val solve : ?on_check:(unit -> unit) -> Lp.problem -> Lp.outcome
