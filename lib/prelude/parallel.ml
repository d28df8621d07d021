(* Domain-based data parallelism for embarrassingly parallel experiment
   sweeps and service batches: one independent throughput computation
   per element. The solvers themselves run on one domain.

   A tiny fork-join map is all the framework needs: each call spawns up
   to [domain_count () - 1] worker domains, statically splits the index
   range, and joins. Tasks must be pure or confined to their own state
   (the RNG is split per task upstream).

   The TOPOBENCH_DOMAINS environment variable overrides the worker
   count: 0 or 1 forces sequential execution, k > 1 uses up to k
   domains even beyond the hardware count. It is re-read on every call,
   so tests can flip it with [Unix.putenv] to compare sequential and
   parallel runs in one process. *)

let hardware_domains =
  (* Leave one core for the orchestrating domain; cap to avoid
     oversubscription on large machines. *)
  let n = Domain.recommended_domain_count () in
  max 1 (min 8 (n - 1))

let domain_count () =
  match Sys.getenv_opt "TOPOBENCH_DOMAINS" with
  | None -> hardware_domains
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 0 -> max 1 d
    | _ -> hardware_domains)

let enabled = ref true

(* [map_array f a] = Array.map f a, computed in parallel chunks.
   [gated] callers respect the [enabled] switch (inner maps, which
   should go sequential when an outer loop already owns the cores);
   [force_map_array] always parallelizes.

   Results land in a pre-sized array with no per-element [Some] boxing:
   [f a.(0)] is computed up front on the orchestrating domain and seeds
   every slot, then the workers overwrite slots 1..n-1 in place.

   A raising element never strands a domain: every spawned domain is
   joined before the first exception (the orchestrator's, else the
   earliest worker's) is re-raised. *)
let map_array_impl ~gated f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let workers = min (domain_count ()) n in
    if (gated && not !enabled) || n = 1 || workers = 1 then Array.map f a
    else begin
      let results = Array.make n (f a.(0)) in
      let chunk w =
        (* Static block partition of [1, n) across [workers]; slot 0 is
           already final. *)
        let lo = 1 + ((w * (n - 1)) / workers)
        and hi = (((w + 1) * (n - 1)) / workers) in
        for i = lo to hi do
          results.(i) <- f a.(i)
        done
      in
      let domains =
        Array.init (workers - 1) (fun w ->
            Domain.spawn (fun () -> chunk (w + 1)))
      in
      let capture run =
        match run () with
        | () -> None
        | exception e -> Some (e, Printexc.get_raw_backtrace ())
      in
      let first =
        Array.fold_left
          (fun first d ->
            let e = capture (fun () -> Domain.join d) in
            if Option.is_some first then first else e)
          (capture (fun () -> chunk 0))
          domains
      in
      Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) first;
      results
    end
  end

let map_array f a = map_array_impl ~gated:true f a
let force_map_array f a = map_array_impl ~gated:false f a
