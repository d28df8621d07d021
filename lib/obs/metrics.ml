(* Process-wide metrics registry.

   Design constraints, in order:
   - hot-path cost: solvers increment counters inside loops that run
     millions of times, so an increment is a single mutable-field write
     on a record the caller obtained once at module-init time. No
     hashtable lookup, no atomics, no allocation on the hot path.
   - multi-domain runs: experiment sweeps fan out over domains
     (Tb_prelude.Parallel). Plain writes may lose increments under
     contention; the registry trades that slack for zero hot-path cost —
     counts are diagnostics, not accounting. Registration itself is
     guarded by a mutex since it is rare.
   - export: one [to_json] for machines (plus its Prometheus text
     rendering), [reset] for tests and per-section deltas. *)

type counter = { c_name : string; mutable count : int }
type gauge = { g_name : string; mutable value : float; mutable g_set : bool }

type timer = {
  t_name : string;
  mutable total_ns : int64;
  mutable t_count : int;
}

(* Log-scale histogram: bucket [i] counts samples in [2^i, 2^(i+1)).
   64 buckets cover any nonnegative int64-magnitude sample. *)
type histogram = {
  h_name : string;
  buckets : int array; (* length 64 *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

(* Fixed-precision latency histogram (Hdr), sharded per domain so the
   hot path stays contention-free; readers merge at read time. The
   user-facing kind: anything quoted as a p50/p99 to a human goes here,
   the factor-of-2 [histogram] stays for coarse diagnostics. *)
type hdr = { hd_name : string; shards : Hdr.sharded }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Timer of timer
  | Histogram of histogram
  | Hdr_hist of hdr

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let metric_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Timer t -> t.t_name
  | Histogram h -> h.h_name
  | Hdr_hist h -> h.hd_name

(* Register-or-find under the lock; mismatched kinds under one name are
   a programming error worth failing loudly on. *)
let intern name make cast =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
        match cast m with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as another kind"
               name))
      | None ->
        let v = make () in
        Hashtbl.add registry name v;
        match cast v with Some v -> v | None -> assert false)

let counter name =
  intern name
    (fun () -> Counter { c_name = name; count = 0 })
    (function Counter c -> Some c | _ -> None)

let gauge name =
  intern name
    (fun () -> Gauge { g_name = name; value = 0.0; g_set = false })
    (function Gauge g -> Some g | _ -> None)

let timer name =
  intern name
    (fun () -> Timer { t_name = name; total_ns = 0L; t_count = 0 })
    (function Timer t -> Some t | _ -> None)

let histogram name =
  intern name
    (fun () ->
      Histogram
        {
          h_name = name;
          buckets = Array.make 64 0;
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
        })
    (function Histogram h -> Some h | _ -> None)

let hdr name =
  intern name
    (fun () -> Hdr_hist { hd_name = name; shards = Hdr.sharded () })
    (function Hdr_hist h -> Some h | _ -> None)

(* ---- Hot-path operations. ---- *)

let incr c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let count c = c.count

let set g v =
  g.value <- v;
  g.g_set <- true

let record_ns t ns =
  t.total_ns <- Int64.add t.total_ns ns;
  t.t_count <- t.t_count + 1

let time t f =
  let t0 = Clock.now_ns () in
  Fun.protect ~finally:(fun () -> record_ns t (Clock.elapsed_ns t0)) f

let timer_total_ms t = Clock.ns_to_ms t.total_ns
let timer_count t = t.t_count

let bucket_of_sample v =
  if v < 1.0 then 0
  else begin
    let b = int_of_float (Float.log2 v) in
    if b < 0 then 0 else if b > 63 then 63 else b
  end

let observe h v =
  let b = bucket_of_sample v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let histogram_count h = h.h_count
let histogram_mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

let observe_hdr h v = Hdr.record_sharded h.shards v

(* Upper edge of the smallest bucket prefix holding [q] of the mass —
   a log-scale quantile estimate, good to a factor of 2. *)
let histogram_quantile h q =
  if h.h_count = 0 then 0.0
  else begin
    let target = q *. float_of_int h.h_count in
    let acc = ref 0 and result = ref h.h_max in
    (try
       for b = 0 to 63 do
         acc := !acc + h.buckets.(b);
         if float_of_int !acc >= target then begin
           result := Float.of_int (1 lsl (min 62 (b + 1)));
           raise Exit
         end
       done
     with Exit -> ());
    min !result h.h_max
  end

(* ---- Introspection and export. ---- *)

let sorted_metrics () =
  Mutex.lock lock;
  let all =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  in
  List.sort (fun a b -> compare (metric_name a) (metric_name b)) all

let find_counter name =
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> Some c
  | _ -> None

let reset () =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> c.count <- 0
          | Gauge g ->
            g.value <- 0.0;
            g.g_set <- false
          | Timer t ->
            t.total_ns <- 0L;
            t.t_count <- 0
          | Histogram h ->
            Array.fill h.buckets 0 64 0;
            h.h_count <- 0;
            h.h_sum <- 0.0;
            h.h_min <- infinity;
            h.h_max <- neg_infinity
          | Hdr_hist h -> Hdr.clear_sharded h.shards)
        registry)

(* Snapshots, for before/after deltas around an experiment: counts (and
   accumulated totals) are monotone between resets, so a subtraction of
   two snapshots attributes work to the section between them. *)
let counter_snapshot () =
  List.filter_map
    (function Counter c -> Some (c.c_name, c.count) | _ -> None)
    (sorted_metrics ())

let timer_snapshot () =
  List.filter_map
    (function
      | Timer t -> Some (t.t_name, (t.t_count, Clock.ns_to_ms t.total_ns))
      | _ -> None)
    (sorted_metrics ())

let histogram_snapshot () =
  List.filter_map
    (function
      | Histogram h -> Some (h.h_name, (h.h_count, h.h_sum))
      | Hdr_hist h ->
        let m = Hdr.merged h.shards in
        Some (h.hd_name, (Hdr.count m, Hdr.sum m))
      | _ -> None)
    (sorted_metrics ())

let json_of_metric m =
  match m with
  | Counter c -> (c.c_name, Json.Obj [ ("type", Json.String "counter"); ("count", Json.Int c.count) ])
  | Gauge g ->
    ( g.g_name,
      Json.Obj
        [ ("type", Json.String "gauge"); ("value", Json.Float g.value) ] )
  | Timer t ->
    ( t.t_name,
      Json.Obj
        [
          ("type", Json.String "timer");
          ("count", Json.Int t.t_count);
          ("total_ms", Json.Float (Clock.ns_to_ms t.total_ns));
          ( "mean_ms",
            Json.Float
              (if t.t_count = 0 then 0.0
               else Clock.ns_to_ms t.total_ns /. float_of_int t.t_count) );
        ] )
  | Histogram h ->
    ( h.h_name,
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("count", Json.Int h.h_count);
          ("mean", Json.Float (histogram_mean h));
          ("min", Json.Float (if h.h_count = 0 then 0.0 else h.h_min));
          ("max", Json.Float (if h.h_count = 0 then 0.0 else h.h_max));
          ("p50", Json.Float (histogram_quantile h 0.5));
          ("p90", Json.Float (histogram_quantile h 0.9));
          ("p99", Json.Float (histogram_quantile h 0.99));
        ] )
  | Hdr_hist h ->
    let m = Hdr.merged h.shards in
    ( h.hd_name,
      Json.Obj
        [
          ("type", Json.String "hdr");
          ("count", Json.Int (Hdr.count m));
          ("sum", Json.Float (Hdr.sum m));
          ("mean", Json.Float (Hdr.mean m));
          ("min", Json.Float (Hdr.min_value m));
          ("max", Json.Float (Hdr.max_value m));
          ("p50", Json.Float (Hdr.quantile m 0.5));
          ("p90", Json.Float (Hdr.quantile m 0.9));
          ("p99", Json.Float (Hdr.quantile m 0.99));
        ] )

let to_json () = Json.Obj (List.map json_of_metric (sorted_metrics ()))

let write path = Json.write path (to_json ())

(* ---- Prometheus text exposition (format version 0.0.4). ----

   Names are sanitized to the [a-zA-Z_:][a-zA-Z0-9_:]* grammar (the
   registry's dots become underscores). Counters and gauges map
   directly; timers and both histogram kinds are exposed as summaries
   ([_sum]/[_count], plus quantile series where the registry has them).
   Units stay milliseconds, as everywhere else in the registry — the
   metric names carry the [_ms] suffix convention. *)

let prom_name name =
  let sane c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  let s = String.map (fun c -> if sane c then c else '_') name in
  if s = "" || (s.[0] >= '0' && s.[0] <= '9') then "_" ^ s else s

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else Printf.sprintf "%.17g" v

(* One metric rendered from its already-exported scalar components, so
   the live registry and a snapshot file read back from disk produce
   the same exposition. *)
let prom_render buf ~name ~kind ~fields =
  let n = prom_name name in
  let f key = List.assoc_opt key fields in
  let line ?(suffix = "") ?labels value =
    Buffer.add_string buf n;
    Buffer.add_string buf suffix;
    (match labels with
    | Some l -> Buffer.add_string buf (Printf.sprintf "{%s}" l)
    | None -> ());
    Buffer.add_char buf ' ';
    Buffer.add_string buf (prom_float value);
    Buffer.add_char buf '\n'
  in
  let typ t = Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" n t) in
  match kind with
  | "counter" ->
    typ "counter";
    line (Option.value ~default:0.0 (f "count"))
  | "gauge" ->
    typ "gauge";
    line (Option.value ~default:0.0 (f "value"))
  | "timer" ->
    typ "summary";
    line ~suffix:"_sum" (Option.value ~default:0.0 (f "total_ms"));
    line ~suffix:"_count" (Option.value ~default:0.0 (f "count"))
  | "histogram" | "hdr" ->
    typ "summary";
    List.iter
      (fun (q, key) ->
        match f key with
        | Some v -> line ~labels:(Printf.sprintf "quantile=%S" q) v
        | None -> ())
      [ ("0.5", "p50"); ("0.9", "p90"); ("0.99", "p99") ];
    let count = Option.value ~default:0.0 (f "count") in
    let sum =
      match f "sum" with
      | Some s -> s
      | None -> Option.value ~default:0.0 (f "mean") *. count
    in
    line ~suffix:"_sum" sum;
    line ~suffix:"_count" count
  | _ -> ()

let prom_fields_of_metric m =
  match json_of_metric m with
  | name, Json.Obj fields ->
    let kind =
      match List.assoc_opt "type" fields with
      | Some (Json.String k) -> k
      | _ -> ""
    in
    let scalars =
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Int i -> Some (k, float_of_int i)
          | Json.Float x -> Some (k, x)
          | _ -> None)
        fields
    in
    (name, kind, scalars)
  | name, _ -> (name, "", [])

let to_prometheus () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun m ->
      let name, kind, fields = prom_fields_of_metric m in
      prom_render buf ~name ~kind ~fields)
    (sorted_metrics ());
  Buffer.contents buf

(* The same exposition, rendered from a [to_json] snapshot read back
   from disk (`topobench stats --prometheus FILE`). *)
let prometheus_of_json doc =
  match doc with
  | Json.Obj entries ->
    let buf = Buffer.create 1024 in
    let ok =
      List.for_all
        (fun (name, v) ->
          match v with
          | Json.Obj fields ->
            let kind =
              match List.assoc_opt "type" fields with
              | Some (Json.String k) -> k
              | _ -> ""
            in
            if kind = "" then false
            else begin
              let scalars =
                List.filter_map
                  (fun (k, v) ->
                    match v with
                    | Json.Int i -> Some (k, float_of_int i)
                    | Json.Float x -> Some (k, x)
                    | _ -> None)
                  fields
              in
              prom_render buf ~name ~kind ~fields:scalars;
              true
            end
          | _ -> false)
        entries
    in
    if ok then Ok (Buffer.contents buf)
    else Error "not a metrics snapshot (expected {name: {type: ...}} entries)"
  | _ -> Error "not a metrics snapshot (expected a JSON object)"
