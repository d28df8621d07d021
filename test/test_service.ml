(* Tb_service: the unified request/result API, the two-tier
   content-addressed cache, and the batching scheduler.

   The load-bearing properties: equal computations hash equally (alias
   and defaulting insensitivity), cache hits are bit-identical to the
   solves that populated them (including across a store reopen), a
   batch solves exactly once per unique hash, and a failing solve
   yields an error result without poisoning the cache or the daemon. *)

module Request = Tb_service.Request
module Res = Tb_service.Result
module Service = Tb_service.Service
module Lru = Tb_service.Lru
module Store = Tb_service.Store
module Json = Tb_obs.Json
module Metrics = Tb_obs.Metrics

let spec s =
  match Tb_topo.Catalog.spec_of_string s with
  | Ok sp -> sp
  | Error e -> failwith e

let req ?solver ?eps ?tol ?budget_ms ?seed topo tm =
  Request.make ?solver ?eps ?tol ?budget_ms ?seed ~topo:(Request.Spec (spec topo))
    ~tm:(Request.Named tm) ()

let counter name =
  match Metrics.find_counter name with
  | Some c -> Metrics.count c
  | None -> 0

let temp_path suffix =
  let path = Filename.temp_file "tb_service_test" suffix in
  Sys.remove path;
  path

(* ---- Request hashing and round-trips. ---- *)

let test_hash_deterministic () =
  let a = req "hypercube:3" "a2a" in
  let b = req "hypercube:3" "a2a" in
  Alcotest.(check string) "same request, same hash" (Request.hash a)
    (Request.hash b);
  Alcotest.(check bool) "tol changes the hash" false
    (Request.hash (req ~tol:0.05 "hypercube:3" "a2a") = Request.hash a);
  Alcotest.(check bool) "tm changes the hash" false
    (Request.hash (req "hypercube:3" "lm") = Request.hash a)

let test_hash_aliases () =
  Alcotest.(check string) "rm is rm1"
    (Request.hash (req "hypercube:3" "rm1"))
    (Request.hash (req "hypercube:3" "rm"));
  Alcotest.(check string) "flattenedbf is flatbf"
    (Request.hash (req "flatbf:2" "a2a"))
    (Request.hash (req "flattenedbf:2" "a2a"));
  Alcotest.(check string) "default size made explicit"
    (Request.hash (req "hypercube:4" "a2a"))
    (Request.hash (req "hypercube" "a2a"))

let test_hash_defaulted_vs_explicit_json () =
  let parse line =
    match Request.of_line line with
    | Ok r -> r
    | Error e -> failwith e
  in
  let defaulted = parse {|{"topo":{"spec":"hypercube:3"},"tm":{"named":"rm"}}|} in
  let explicit =
    parse
      ({|{"topo":{"spec":"hypercube:3,deg=6,hosts=1,seed=42"},|}
      ^ {|"tm":{"named":"rm1"},"solver":"auto","eps":0.4,"tol":0.04,|}
      ^ {|"budget_ms":1e999,"seed":42}|})
  in
  Alcotest.(check string) "defaulted and explicit renderings hash equal"
    (Request.hash explicit) (Request.hash defaulted)

(* Pinned golden: the canonical hash of a datacenter-scale request must
   never drift across refactors of the spec parser / renderer, or every
   cached result for big instances silently invalidates. Recompute only
   for a *deliberate* request-schema change (bump the
   "topobench.request.v1" version tag when you do). *)
let test_hash_stability_scale_spec () =
  let r = req "fattree:284" "a2a" in
  Alcotest.(check string) "fattree:284 canonical hash pinned"
    "3034d5edf65aa1a1f1eff1fdabc6512b" (Request.hash r);
  (* Validation must not reject datacenter-scale specs anywhere on the
     request path. *)
  List.iter
    (fun (_, s) ->
      match Tb_topo.Catalog.spec_of_string s with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "scale spec %s rejected: %s" s m)
    Tb_topo.Catalog.scale_specs

let test_request_json_roundtrip () =
  let check_rt name r =
    match Request.of_json (Request.to_json r) with
    | Error e -> Alcotest.failf "%s: round-trip failed: %s" name e
    | Ok r' ->
      Alcotest.(check string) name (Request.canonical_bytes r)
        (Request.canonical_bytes r')
  in
  check_rt "generated spec" (req ~solver:Request.Fptas ~tol:0.07 ~seed:9 "jellyfish:14,deg=4" "rm5");
  let topo = Tb_topo.Hypercube.make ~dim:3 () in
  let tm = Tb_tm.Synthetic.longest_matching topo in
  check_rt "inline instance" (Request.of_instance topo tm)

let test_inline_seed_independent () =
  (* The seed only drives named-TM generation; identical inline
     instances must share a hash no matter who built the request. *)
  let topo = Tb_topo.Hypercube.make ~dim:3 () in
  let tm = Tb_tm.Synthetic.longest_matching topo in
  let bytes_of seed =
    Request.canonical_bytes
      (Request.make ~seed
         ~topo:(Request.Inline_topo (Tb_topo.Io.to_string topo))
         ~tm:(Request.Inline_tm (Tb_tm.Io.to_string tm))
         ())
  in
  Alcotest.(check string) "seed excluded for inline TMs" (bytes_of 1)
    (bytes_of 99)

let test_result_json_roundtrip () =
  let r =
    {
      Res.value = 1.5;
      lower = 4.0 /. 3.0;
      upper = infinity;
      rung = "fptas";
      attempts =
        [ { Res.a_rung = "exact"; a_tol = 0.0; a_error = "injected" } ];
      solve_ms = 12.625;
      topo_label = "Hypercube(dim=3,h=1)";
      tm_label = "LM";
      flows = 8;
      error = None;
    }
  in
  let s1 = Json.to_string (Res.to_json r) in
  let reparsed =
    match Json.of_string s1 with
    | Ok j -> (match Res.of_json j with Ok r -> r | Error e -> failwith e)
    | Error e -> failwith e
  in
  Alcotest.(check string) "print-parse-print fixpoint" s1
    (Json.to_string (Res.to_json reparsed));
  let err = Res.failed ~solve_ms:1.25 "boom" in
  let s2 = Json.to_string (Res.to_json err) in
  let reparsed_err =
    match Json.of_string s2 with
    | Ok j -> (match Res.of_json j with Ok r -> r | Error e -> failwith e)
    | Error e -> failwith e
  in
  Alcotest.(check string) "error result fixpoint" s2
    (Json.to_string (Res.to_json reparsed_err));
  Alcotest.(check bool) "error flag survives" true (Res.is_error reparsed_err)

(* ---- LRU. ---- *)

let test_lru_eviction_order () =
  let l = Lru.create ~capacity:3 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Lru.add l "c" 3;
  Alcotest.(check (option int)) "promote a" (Some 1) (Lru.find l "a");
  Lru.add l "d" 4;
  (* b was least recently used: c < a < d after the promotion. *)
  Alcotest.(check (option int)) "b evicted" None (Lru.find l "b");
  Alcotest.(check (list string)) "recency order" [ "d"; "a"; "c" ]
    (Lru.keys_by_recency l);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions l);
  Lru.add l "c" 30;
  Alcotest.(check int) "overwrite does not evict" 1 (Lru.evictions l);
  Alcotest.(check int) "length stable" 3 (Lru.length l);
  Alcotest.(check (option int)) "overwrite visible" (Some 30) (Lru.find l "c")

(* ---- Disk store. ---- *)

let test_store_reopen_roundtrip () =
  let path = temp_path ".ndjson" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let st = Store.open_ ~path in
  Store.append st "h1" (Json.Obj [ ("value", Json.Float 1.5) ]);
  Store.append st "h2" (Json.Obj [ ("value", Json.Float 2.5) ]);
  Store.close st;
  let st2 = Store.open_ ~path in
  Alcotest.(check int) "both entries survive" 2 (Store.length st2);
  Alcotest.(check bool) "h1 present" true (Store.mem st2 "h1");
  Alcotest.(check (option string)) "h2 value intact"
    (Some {|{"value":2.5}|})
    (Option.map Json.to_string (Store.find st2 "h2"))

let test_store_torn_write_recovery () =
  let path = temp_path ".ndjson" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let st = Store.open_ ~path in
  Store.append st "h1" (Json.Obj [ ("value", Json.Float 1.5) ]);
  Store.append st "h2" (Json.Obj [ ("value", Json.Float 2.5) ]);
  Store.close st;
  (* Simulate a writer killed mid-line: a truncated record with no
     trailing newline. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc {|{"hash":"h3","result":{"val|};
  close_out oc;
  let st2 = Store.open_ ~path in
  Alcotest.(check int) "torn line skipped, rest intact" 2 (Store.length st2);
  (* Appending after the torn line must not concatenate onto it. *)
  Store.append st2 "h4" (Json.Obj [ ("value", Json.Float 4.5) ]);
  Store.close st2;
  let st3 = Store.open_ ~path in
  Alcotest.(check int) "append after torn line readable" 3 (Store.length st3);
  Alcotest.(check bool) "h4 present" true (Store.mem st3 "h4");
  Store.compact st3;
  let st4 = Store.open_ ~path in
  Alcotest.(check int) "compaction keeps live entries" 3 (Store.length st4)

(* Two-process regression: a child compacting in a loop while the
   parent appends. The lock protocol must (a) never corrupt the file,
   (b) never lose an append to a rename swap, and (c) let the
   compactor preserve entries it never saw in memory. *)
let test_store_compact_append_race () =
  let path = temp_path ".ndjson" in
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".lock" ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let st = Store.open_ ~path in
  Store.append st "seed" (Json.Obj [ ("value", Json.Float 0.0) ]);
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* The compactor: its handle opened before most parent appends
       exist, so every rewrite must re-read the file to keep them. *)
    let code =
      try
        let mine = Store.open_ ~path in
        for _ = 1 to 40 do
          Store.compact mine;
          Unix.sleepf 0.001
        done;
        0
      with _ -> 1
    in
    Stdlib.exit code
  | child ->
    let n = 200 in
    for i = 1 to n do
      Store.append st
        (Printf.sprintf "h%d" i)
        (Json.Obj [ ("value", Json.Float (float_of_int i)) ]);
      if i mod 20 = 0 then Unix.sleepf 0.001
    done;
    let _, status = Unix.waitpid [] child in
    Alcotest.(check bool) "compactor exited cleanly" true
      (status = Unix.WEXITED 0);
    Store.close st;
    let st2 = Store.open_ ~path in
    Alcotest.(check int) "no append lost to the swap" (n + 1)
      (Store.length st2);
    for i = 1 to n do
      if not (Store.mem st2 (Printf.sprintf "h%d" i)) then
        Alcotest.failf "entry h%d lost" i
    done

(* ---- Service cache behavior. ---- *)

let test_cache_hit_bit_identical () =
  let svc = Service.create ~capacity:8 () in
  let r = req "hypercube:3" "rm1" in
  let solves0 = counter "service.solves" in
  let resp1 = Service.handle svc r in
  let resp2 = Service.handle svc r in
  Alcotest.(check bool) "first is a miss" false resp1.Service.cached;
  Alcotest.(check bool) "second is a hit" true resp2.Service.cached;
  Alcotest.(check int) "exactly one solve" 1
    (counter "service.solves" - solves0);
  Alcotest.(check string) "hit bit-identical to miss (incl. solve_ms)"
    (Json.to_string (Res.to_json resp1.Service.result))
    (Json.to_string (Res.to_json resp2.Service.result))

let test_two_tier_reopen_bit_identical () =
  let path = temp_path ".ndjson" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let r = req "hypercube:3" "lm" in
  let svc1 = Service.create ~capacity:8 ~store_path:path () in
  let resp1 = Service.handle svc1 r in
  (match Service.store svc1 with
  | Some st -> Store.close st
  | None -> Alcotest.fail "store expected");
  let solves0 = counter "service.solves" in
  let svc2 = Service.create ~capacity:8 ~store_path:path () in
  let resp2 = Service.handle svc2 r in
  Alcotest.(check bool) "served from disk" true resp2.Service.cached;
  Alcotest.(check int) "no re-solve after reopen" 0
    (counter "service.solves" - solves0);
  Alcotest.(check string) "disk hit bit-identical"
    (Json.to_string (Res.to_json resp1.Service.result))
    (Json.to_string (Res.to_json resp2.Service.result))

let test_batch_coalescing () =
  let svc = Service.create ~capacity:8 () in
  let a = req "hypercube:3" "rm1" in
  let b = req "hypercube:3" "lm" in
  let solves0 = counter "service.solves" in
  let coalesced0 = counter "service.coalesced" in
  let responses = Service.handle_batch svc [ a; b; a; b; a; b ] in
  Alcotest.(check int) "responses in request order" 6 (List.length responses);
  Alcotest.(check int) "one solve per unique hash" 2
    (counter "service.solves" - solves0);
  Alcotest.(check int) "duplicates coalesced" 4
    (counter "service.coalesced" - coalesced0);
  let arr = Array.of_list responses in
  Alcotest.(check string) "duplicate shares the result"
    (Json.to_string (Res.to_json arr.(0).Service.result))
    (Json.to_string (Res.to_json arr.(4).Service.result));
  Alcotest.(check bool) "distinct hashes distinct" false
    (arr.(0).Service.hash = arr.(1).Service.hash);
  (* Re-running the same batch is all cache hits. *)
  let solves1 = counter "service.solves" in
  let responses2 = Service.handle_batch svc [ a; b; a ] in
  Alcotest.(check int) "second batch solves nothing" 0
    (counter "service.solves" - solves1);
  List.iter
    (fun (resp : Service.response) ->
      Alcotest.(check bool) "second batch all cached" true resp.Service.cached)
    responses2

let test_batch_shares_topology_build () =
  (* Distinct TMs on the same spec must not rebuild the topology: the
     random-construction counter advances once for the whole batch. *)
  let svc = Service.create ~capacity:8 () in
  let a = req "jellyfish:14,deg=4,seed=5" "rm1" in
  let b = req "jellyfish:14,deg=4,seed=5" "lm" in
  let responses = Service.handle_batch svc [ a; b ] in
  List.iter
    (fun (resp : Service.response) ->
      Alcotest.(check bool) "no errors"
        false (Res.is_error resp.Service.result))
    responses;
  (* Identical topo_key is what groups them; check the invariant holds. *)
  Alcotest.(check string) "same topo key" (Request.topo_key a)
    (Request.topo_key b)

let test_eviction_metric () =
  let svc = Service.create ~capacity:1 () in
  let a = req "hypercube:2" "rm1" in
  let b = req "hypercube:2" "lm" in
  let evict0 = counter "service.cache.evictions" in
  ignore (Service.handle svc a);
  ignore (Service.handle svc b);
  Alcotest.(check int) "insert over capacity evicts" 1
    (counter "service.cache.evictions" - evict0);
  (* a was evicted: re-requesting it is a miss again. *)
  let resp = Service.handle svc a in
  Alcotest.(check bool) "evicted entry misses" false resp.Service.cached

let test_fault_isolation () =
  let svc = Service.create ~capacity:8 () in
  (* Exact_lp is the only rung of its chain; injecting an exception on
     every attempt exhausts it. *)
  let r = req ~solver:Request.Exact_lp "hypercube:2" "a2a" in
  let fault = Tb_harness.Fault.make ~exc_p:1.0 ~seed:3 () in
  let errors0 = counter "service.errors" in
  let resp = Service.handle ~fault svc r in
  Alcotest.(check bool) "error result, not an exception" true
    (Res.is_error resp.Service.result);
  Alcotest.(check bool) "error responses are not cached hits" false
    resp.Service.cached;
  Alcotest.(check int) "error counted" 1 (counter "service.errors" - errors0);
  (* The daemon survives, and the failed request did not poison the
     cache: a clean run of the same request is a miss, then a hit. *)
  let ok1 = Service.handle svc r in
  Alcotest.(check bool) "clean rerun misses (no poisoned entry)" false
    ok1.Service.cached;
  Alcotest.(check bool) "clean rerun succeeds" false
    (Res.is_error ok1.Service.result);
  let ok2 = Service.handle svc r in
  Alcotest.(check bool) "then hits" true ok2.Service.cached

let test_batch_error_cell_isolated () =
  let svc = Service.create ~capacity:8 () in
  let bad =
    Request.make
      ~topo:(Request.Inline_topo "nodes zero\n")
      ~tm:(Request.Named "a2a") ()
  in
  let good = req "hypercube:2" "rm1" in
  let responses = Service.handle_batch svc [ bad; good ] in
  match responses with
  | [ rb; rg ] ->
    Alcotest.(check bool) "bad cell errors" true (Res.is_error rb.Service.result);
    Alcotest.(check bool) "good cell unaffected" false
      (Res.is_error rg.Service.result)
  | _ -> Alcotest.fail "expected two responses"

(* ---- Request-lifecycle observability. ---- *)

let str_field name r = Option.bind (Json.member name r) Json.to_str
let bool_field name r =
  match Json.member name r with Some (Json.Bool b) -> Some b | _ -> None

let test_batch_trace_spans_correlated_by_hash () =
  let module Trace = Tb_obs.Trace in
  let a = req "hypercube:2" "rm1" in
  let b = req "hypercube:2" "lm" in
  Trace.clear ();
  Trace.enable ();
  let svc = Service.create ~capacity:8 () in
  ignore (Service.handle_batch svc [ a; b; a ]);
  Trace.disable ();
  Fun.protect ~finally:Trace.clear @@ fun () ->
  let events =
    Option.get
      (Option.bind (Json.member "traceEvents" (Trace.to_json ())) Json.to_list)
  in
  let spans name =
    List.filter
      (fun e -> Json.member "name" e = Some (Json.String name))
      events
  in
  let span_hashes name =
    List.filter_map
      (fun e ->
        Option.bind (Json.member "args" e) (fun args ->
            str_field "hash" args))
      (spans name)
  in
  Alcotest.(check int) "one batch span" 1 (List.length (spans "service.batch"));
  (* One solve span per unique hash, each tagged with that hash — the
     duplicate [a] coalesces, so exactly two solves. *)
  let solve_hashes = List.sort_uniq compare (span_hashes "service.solve") in
  Alcotest.(check int) "two solve spans" 2
    (List.length (span_hashes "service.solve"));
  Alcotest.(check (list string)) "solve spans carry the request hashes"
    (List.sort_uniq compare [ Request.hash a; Request.hash b ])
    solve_hashes;
  (* Builds are shared per topology, and also hash-tagged. *)
  Alcotest.(check bool) "build span present" true
    (span_hashes "service.build" <> [])

let read_access_log path =
  let records, skipped = Tb_obs.Events.read path in
  Alcotest.(check int) "access log parses clean" 0 skipped;
  records

let test_handle_access_log_records () =
  let module Events = Tb_obs.Events in
  let path = temp_path ".ndjson" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let w = Events.open_ path in
  let svc = Service.create ~capacity:8 ~access_log:w () in
  let a = req "hypercube:2" "rm1" in
  let b = req "hypercube:2" "lm" in
  ignore (Service.handle svc a);
  ignore (Service.handle svc a);
  ignore (Service.handle svc b);
  Events.close w;
  match read_access_log path with
  | [ r1; r2; r3 ] ->
    Alcotest.(check (option string)) "hash recorded" (Some (Request.hash a))
      (str_field "hash" r1);
    Alcotest.(check (option bool)) "miss marked uncached" (Some false)
      (bool_field "cached" r1);
    Alcotest.(check (option bool)) "hit marked cached" (Some true)
      (bool_field "cached" r2);
    Alcotest.(check (option string)) "hit replays the miss hash"
      (str_field "hash" r1) (str_field "hash" r2);
    (* The hit serves the stored result verbatim, original solve_ms
       included. *)
    Alcotest.(check (option (float 1e-9))) "hit replays original solve_ms"
      (Option.bind (Json.member "solve_ms" r1) Json.to_float)
      (Option.bind (Json.member "solve_ms" r2) Json.to_float);
    Alcotest.(check (option string)) "third record is b"
      (Some (Request.hash b)) (str_field "hash" r3);
    List.iter
      (fun r ->
        Alcotest.(check bool) "solver field present" true
          (str_field "solver" r <> None);
        Alcotest.(check (option bool)) "handle path never coalesces"
          (Some false) (bool_field "coalesced" r);
        Alcotest.(check bool) "no error" true
          (Json.member "error" r = Some Json.Null))
      [ r1; r2; r3 ]
  | other -> Alcotest.failf "expected 3 records, got %d" (List.length other)

let test_batch_access_log_coalesced_flag () =
  let module Events = Tb_obs.Events in
  let path = temp_path ".ndjson" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let w = Events.open_ path in
  let svc = Service.create ~capacity:8 ~access_log:w () in
  let a = req "hypercube:2" "rm1" in
  let b = req "hypercube:2" "lm" in
  ignore (Service.handle_batch svc [ a; b; a ]);
  Events.close w;
  let records = read_access_log path in
  Alcotest.(check int) "one record per batch entry" 3 (List.length records);
  let coalesced =
    List.filter (fun r -> bool_field "coalesced" r = Some true) records
  in
  (match coalesced with
  | [ r ] ->
    Alcotest.(check (option string)) "the duplicate is the coalesced one"
      (Some (Request.hash a)) (str_field "hash" r)
  | other ->
    Alcotest.failf "expected 1 coalesced record, got %d" (List.length other));
  List.iter
    (fun r ->
      Alcotest.(check bool) "queue_ms recorded" true
        (Option.bind (Json.member "queue_ms" r) Json.to_float <> None))
    records

(* ---- Loadgen. ---- *)

let test_loadgen_mix_deterministic () =
  let module Loadgen = Tb_service.Loadgen in
  let cfg = { Loadgen.default with Loadgen.requests = 200; seed = 7 } in
  let hashes cfg =
    Array.to_list (Array.map Request.hash (Loadgen.mix cfg))
  in
  Alcotest.(check (list string)) "same seed, hash-identical mix"
    (hashes cfg) (hashes cfg);
  Alcotest.(check bool) "different seed, different mix" true
    (hashes cfg <> hashes { cfg with Loadgen.seed = 8 });
  (* The pool has genuine variety and the Zipf head dominates. *)
  let distinct l = List.length (List.sort_uniq compare l) in
  Alcotest.(check bool) "several distinct hashes" true
    (distinct (hashes cfg) > 5)

let test_loadgen_run_small () =
  let module Loadgen = Tb_service.Loadgen in
  let cfg = { Loadgen.default with Loadgen.requests = 60 } in
  let o = Loadgen.run cfg in
  Alcotest.(check int) "all requests served" 60 o.Loadgen.o_requests;
  Alcotest.(check int) "no errors" 0 o.Loadgen.errors;
  Alcotest.(check bool) "hot head hits the cache" true
    (o.Loadgen.hit_rate > 0.0);
  Alcotest.(check bool) "solves + hits account for every request" true
    (o.Loadgen.solves <= 60 && o.Loadgen.solves >= o.Loadgen.distinct);
  Alcotest.(check bool) "latency quantiles ordered" true
    (o.Loadgen.p50_ms <= o.Loadgen.p99_ms
    && o.Loadgen.p99_ms <= o.Loadgen.max_ms +. 1e-9);
  (* The written document round-trips with the schema the baseline
     comparison expects. *)
  match Loadgen.baseline_rows o (Loadgen.outcome_json cfg o) with
  | Ok rows ->
    List.iter
      (fun (name, current, baseline) ->
        Alcotest.(check (float 1e-9)) (name ^ " self-compares") current
          baseline)
      rows
  | Error e -> Alcotest.fail e

(* ---- The serve loop (ndjson in, ndjson out). ---- *)

let test_batch_lines_protocol () =
  let svc = Service.create ~capacity:8 () in
  let lines =
    [
      "# comment";
      {|{"topo":{"spec":"hypercube:2"},"tm":{"named":"rm"}}|};
      "";
      "not json";
      {|{"topo":{"spec":"hypercube:2"},"tm":{"named":"rm1"}}|};
    ]
  in
  match Service.batch_lines svc lines with
  | [ ok1; err; ok2 ] ->
    Alcotest.(check bool) "parse error reported inline" true
      (Json.member "error" err <> None);
    let hash j =
      match Json.member "hash" j with
      | Some (Json.String h) -> h
      | _ -> Alcotest.fail "missing hash"
    in
    Alcotest.(check string) "rm alias coalesces with rm1" (hash ok1) (hash ok2)
  | other ->
    Alcotest.failf "expected 3 output documents, got %d" (List.length other)

(* Hardened serve loop: a malformed line and an oversized line each
   produce one typed error response, and the daemon keeps serving —
   the valid request after them still gets a real answer. *)
let test_serve_survives_bad_lines () =
  let in_path = temp_path ".in" and out_path = temp_path ".out" in
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ in_path; out_path ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let oc = open_out_bin in_path in
  output_string oc {|{"topo":{"spec":"hypercube:2"},"tm":{"named":"a2a"}}|};
  output_string oc "\nnot json at all\n";
  (* One line over the cap: must be drained and rejected, not
     buffered without bound and not fatal. *)
  output_string oc (String.make (Service.max_line_bytes + 16) 'x');
  output_string oc
    "\n{\"topo\":{\"spec\":\"hypercube:2\"},\"tm\":{\"named\":\"lm\"}}\n";
  close_out oc;
  let ic = open_in_bin in_path and out = open_out_bin out_path in
  let svc = Service.create ~capacity:8 () in
  Service.serve ~ic ~oc:out svc;
  close_in ic;
  close_out out;
  let lines = ref [] in
  let rc = open_in_bin out_path in
  (try
     while true do
       lines := input_line rc :: !lines
     done
   with End_of_file -> ());
  close_in rc;
  match List.rev !lines with
  | [ ok1; err1; err2; ok2 ] ->
    let parsed s =
      match Json.of_string s with
      | Ok d -> d
      | Error e -> Alcotest.failf "unparsable response %S: %s" s e
    in
    let code s =
      match Json.member "code" (parsed s) with
      | Some (Json.String c) -> c
      | _ -> Alcotest.fail "typed error must carry a code"
    in
    Alcotest.(check bool) "first request answered" true
      (Json.member "result" (parsed ok1) <> None);
    Alcotest.(check string) "malformed line typed" "bad_request" (code err1);
    Alcotest.(check string) "oversized line typed" "bad_request" (code err2);
    Alcotest.(check bool) "daemon alive after bad lines" true
      (Json.member "result" (parsed ok2) <> None)
  | other ->
    Alcotest.failf "expected 4 response lines, got %d" (List.length other)

(* ---- Normalized solver optional arguments. ---- *)

let test_solver_deadline_args () =
  let topo = Tb_topo.Hypercube.make ~dim:3 () in
  let g = topo.Tb_topo.Topology.graph in
  let cs = Tb_tm.Tm.commodities (Tb_tm.Synthetic.all_to_all topo) in
  let expired () = Tb_obs.Deadline.start ~budget_ms:0.0 in
  let times_out f =
    match f () with
    | exception Tb_obs.Deadline.Timed_out _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "Exact.solve honors ?deadline" true
    (times_out (fun () -> Tb_flow.Exact.solve ~deadline:(expired ()) g cs));
  Alcotest.(check bool) "Fleischer.solve honors ?deadline" true
    (times_out (fun () ->
         Tb_flow.Fleischer.solve ~deadline:(expired ()) ~tol:0.01 g cs));
  (* Colgen: ?tol is the pricing slack (renamed from ?pricing_tol) and
     ?deadline threads through the pricing loop. *)
  let small = Tb_topo.Hypercube.make ~dim:2 () in
  let small_cs = Tb_tm.Tm.commodities (Tb_tm.Synthetic.all_to_all small) in
  let r =
    Tb_flow.Colgen.solve ~tol:1e-6 small.Tb_topo.Topology.graph small_cs
  in
  Alcotest.(check bool) "Colgen.solve ?tol accepted, solves" true
    (r.Tb_flow.Colgen.value > 0.0);
  Alcotest.(check bool) "Colgen.solve honors ?deadline" true
    (times_out (fun () ->
         Tb_flow.Colgen.solve ~deadline:(expired ())
           small.Tb_topo.Topology.graph small_cs))

let () =
  Alcotest.run "service"
    [
      ( "request",
        [
          Alcotest.test_case "hash deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "hash aliases" `Quick test_hash_aliases;
          Alcotest.test_case "defaulted vs explicit json" `Quick
            test_hash_defaulted_vs_explicit_json;
          Alcotest.test_case "scale-spec hash golden" `Quick
            test_hash_stability_scale_spec;
          Alcotest.test_case "json roundtrip" `Quick test_request_json_roundtrip;
          Alcotest.test_case "inline seed independent" `Quick
            test_inline_seed_independent;
        ] );
      ( "result",
        [
          Alcotest.test_case "json roundtrip fixpoint" `Quick
            test_result_json_roundtrip;
        ] );
      ("lru", [ Alcotest.test_case "eviction order" `Quick test_lru_eviction_order ]);
      ( "store",
        [
          Alcotest.test_case "reopen roundtrip" `Quick test_store_reopen_roundtrip;
          Alcotest.test_case "torn write recovery" `Quick
            test_store_torn_write_recovery;
          Alcotest.test_case "compact vs concurrent appender" `Quick
            test_store_compact_append_race;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit bit-identical" `Quick
            test_cache_hit_bit_identical;
          Alcotest.test_case "two-tier reopen" `Quick
            test_two_tier_reopen_bit_identical;
          Alcotest.test_case "eviction metric" `Quick test_eviction_metric;
          Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
        ] );
      ( "batch",
        [
          Alcotest.test_case "coalescing" `Quick test_batch_coalescing;
          Alcotest.test_case "shared topology build" `Quick
            test_batch_shares_topology_build;
          Alcotest.test_case "error cell isolated" `Quick
            test_batch_error_cell_isolated;
          Alcotest.test_case "ndjson protocol" `Quick test_batch_lines_protocol;
          Alcotest.test_case "serve survives bad lines" `Quick
            test_serve_survives_bad_lines;
        ] );
      ( "observability",
        [
          Alcotest.test_case "batch spans correlated by hash" `Quick
            test_batch_trace_spans_correlated_by_hash;
          Alcotest.test_case "access log records" `Quick
            test_handle_access_log_records;
          Alcotest.test_case "batch coalesced flag" `Quick
            test_batch_access_log_coalesced_flag;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "mix deterministic" `Quick
            test_loadgen_mix_deterministic;
          Alcotest.test_case "small run" `Quick test_loadgen_run_small;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "normalized optional args" `Quick
            test_solver_deadline_args;
        ] );
    ]
