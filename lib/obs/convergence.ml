(* Solver convergence sink.

   The iterative solvers (Fleischer FPTAS, its path-restricted variant,
   column generation) periodically evaluate certified bounds; a sink is
   the observer of those checks. Solvers accept [?on_check] and default
   to {!null}, so the callback costs one closure call per *check* (every
   10 phases for Fleischer, every 5 for Restricted), never per phase.

   A sample carries the solver's view at one check: completed phase
   count, certified lower/upper bounds in the solver's internal
   (pre-scaled) units, and the current step size. Internal units keep
   the invariants clean — lower never decreases, upper never increases —
   and the final result rescales both bounds identically, so the bracket
   ratio is unchanged. *)

type sample = {
  phase : int;
  lower : float;
  upper : float;
  eps : float; (* current (possibly annealed) step size *)
  t_us : float; (* monotonic, since process start *)
}

type sink = sample -> unit

let null : sink = fun _ -> ()

let check (sink : sink) ~phase ~lower ~upper ~eps =
  sink { phase; lower; upper; eps; t_us = Clock.since_start_us () }

(* In-memory recorder, for tests and post-hoc analysis. *)
let recorder () =
  let samples = ref [] in
  let sink s = samples := s :: !samples in
  (sink, fun () -> List.rev !samples)

(* Forward every sample to the trace buffer as a counter time series
   named [name.bounds], plus the step size; a no-op while tracing is
   disabled, so it is safe to install unconditionally. *)
let tracing name : sink =
 fun s ->
  Trace.counter (name ^ ".bounds")
    [ ("lower", s.lower); ("upper", s.upper) ];
  Trace.counter (name ^ ".eps") [ ("eps", s.eps) ]

let combine a b : sink =
 fun s ->
  a s;
  b s
