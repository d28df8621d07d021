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

(* An eps outside (0, 1) would keep Fleischer's first phase refreshing
   forever (its deadline is read between phases), so the parser turns it
   away, and a non-positive or non-finite tol with it. *)
let test_request_rejects_bad_eps_tol () =
  let line extra =
    {|{"topo":{"spec":"hypercube:2"},"tm":{"named":"a2a"},"solver":"fptas",|}
    ^ extra ^ {|,"budget_ms":1000}|}
  in
  List.iter
    (fun extra ->
      match Request.of_line (line extra) with
      | Ok _ -> Alcotest.failf "accepted %s" extra
      | Error _ -> ())
    [ {|"eps":-0.5|}; {|"eps":0|}; {|"eps":1|}; {|"eps":1e999|};
      {|"tol":0|}; {|"tol":-1|}; {|"tol":1e999|} ];
  match Request.of_line (line {|"eps":0.3,"tol":0.1|}) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

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

(* Every shape of request a store on disk may be keyed by, with its
   pinned hash: one spec per catalog family, parsed and hand-built
   aliases (a hand-built family no parser accepts keeps its bytes),
   defaulted sizes, every named TM and solver, inline instances, and
   eps/tol/budget at 1e999, 0.1 and a value that needs 17 digits. Like
   the fattree:284 pin, these move only with a deliberate schema change
   under a new "topobench.request" version tag. *)
let hand ?size ?(degree = 6) ?(hosts = 1) ?(seed = 42) family =
  Request.Spec { Tb_topo.Catalog.family; size; degree; hosts; seed }

let parsed s =
  match Tb_topo.Catalog.spec_of_string s with
  | Ok sp -> Request.Spec sp
  | Error e -> failwith e

let pin_requests () =
  let named ?solver ?eps ?tol ?budget_ms ?seed topo tm =
    Request.make ?solver ?eps ?tol ?budget_ms ?seed ~topo
      ~tm:(Request.Named tm) ()
  in
  let a2a topo = named topo "a2a" in
  let hc3 = parsed "hypercube:3" in
  let cube = Tb_topo.Hypercube.make ~dim:3 () in
  [
    ("bcube:3", a2a (parsed "bcube:3"));
    ("dcell:3", a2a (parsed "dcell:3"));
    ("dragonfly:1", a2a (parsed "dragonfly:1"));
    ("fattree:4", a2a (parsed "fattree:4"));
    ("flatbf:2", a2a (parsed "flatbf:2"));
    ("hypercube:3", a2a hc3);
    ("hyperx:4", a2a (parsed "hyperx:4"));
    ("jellyfish:12,deg=4,hosts=2,seed=7",
     a2a (parsed "jellyfish:12,deg=4,hosts=2,seed=7"));
    ("jellyfish:20,deg=10,hosts=10,seed=100",
     a2a (parsed "jellyfish:20,deg=10,hosts=10,seed=100"));
    ("longhop:3", a2a (parsed "longhop:3"));
    ("slimfly:5", a2a (parsed "slimfly:5"));
    ("xpander:2,deg=4", a2a (parsed "xpander:2,deg=4"));
    ("parsed flattenedbf:2", a2a (parsed "flattenedbf:2"));
    ("parsed FatTree:4", a2a (parsed "FatTree:4"));
    ("parsed hypercube (default size)", a2a (parsed "hypercube"));
    ("hand flattenedbf:2", a2a (hand ~size:2 "flattenedbf"));
    ("hand ft:4", a2a (hand ~size:4 "ft"));
    ("hand FatTree (default size)", a2a (hand "FatTree"));
    ("hand slimfly (default size)", a2a (hand "slimfly"));
    ("hand fattree:3 (invalid)", a2a (hand ~size:3 "fattree"));
    ("hand jellyfish deg=-1", a2a (hand ~size:12 ~degree:(-1) "jellyfish"));
    ("hand hypercube seed=-3", a2a (hand ~size:3 ~seed:(-3) "hypercube"));
    ("tm rm1", named hc3 "rm1");
    ("tm rm alias", named hc3 "rm");
    ("tm rm5", named hc3 "rm5");
    ("tm RM5", named hc3 "RM5");
    ("tm lm", named hc3 "lm");
    ("tm kodialam", named hc3 "kodialam");
    ("tm tmh", named hc3 "tmh");
    ("tm tmf", named hc3 "tmf");
    ("tm Bogus", named hc3 "Bogus");
    ("solver exact", named ~solver:Request.Exact_lp hc3 "a2a");
    ("solver fptas", named ~solver:Request.Fptas hc3 "a2a");
    ("solver cuts", named ~solver:Request.Cut_bound hc3 "a2a");
    ("seed 0", named ~seed:0 hc3 "rm1");
    ("seed -7", named ~seed:(-7) hc3 "rm1");
    ("inline instance",
     Request.of_instance cube (Tb_tm.Synthetic.longest_matching cube));
    ("inline fptas eps 0.1",
     Request.of_instance ~solver:Request.Fptas ~eps:0.1 cube
       (Tb_tm.Synthetic.all_to_all cube));
    ("eps 1e999", named ~eps:infinity hc3 "a2a");
    ("eps 0.1", named ~eps:0.1 hc3 "a2a");
    ("eps 17 digits", named ~eps:(0.1 +. 0.2) hc3 "a2a");
    ("tol 1e999", named ~tol:infinity hc3 "a2a");
    ("tol 0.1", named ~tol:0.1 hc3 "a2a");
    ("tol 17 digits", named ~tol:(0.1 +. 0.2) hc3 "a2a");
    ("budget 1e999", named ~budget_ms:infinity hc3 "a2a");
    ("budget 0.1", named ~budget_ms:0.1 hc3 "a2a");
    ("budget 17 digits", named ~budget_ms:(0.1 +. 0.2) hc3 "a2a");
    ("budget 1500", named ~budget_ms:1500.0 hc3 "a2a");
    ("budget -0", named ~budget_ms:(-0.0) hc3 "a2a");
  ]

let pinned_hashes =
  [
    ("bcube:3", "e9c50ca072097ed6c4aa15d55dafd91f");
    ("dcell:3", "55f2697f2524f667b693cf7df4a97e58");
    ("dragonfly:1", "c3a37e6fb07efbb6be0326aebb0c4fb5");
    ("fattree:4", "b86af02b4d1039a7723726c9047ec950");
    ("flatbf:2", "3cfaa24883e7c4c15597989466a5b9dc");
    ("hypercube:3", "fc06de7dc571b7d4769e91fb9dbf61e5");
    ("hyperx:4", "9992b4e573f71231660dafae03b13009");
    ("jellyfish:12,deg=4,hosts=2,seed=7", "123ea9f20fc4a7fa0bb56a2e290635d9");
    ("jellyfish:20,deg=10,hosts=10,seed=100",
     "d9e4377c2f5d2dcdc8dffc51181c55be");
    ("longhop:3", "af519e5b358d9ce80200ebdca1093fa9");
    ("slimfly:5", "213845da90f84e19640288acab21f83e");
    ("xpander:2,deg=4", "c11ae15a65b402c93dbe551dceae3df1");
    ("parsed flattenedbf:2", "3cfaa24883e7c4c15597989466a5b9dc");
    ("parsed FatTree:4", "b86af02b4d1039a7723726c9047ec950");
    ("parsed hypercube (default size)", "cec1be1a18a2630db847126b5495da84");
    ("hand flattenedbf:2", "3cfaa24883e7c4c15597989466a5b9dc");
    ("hand ft:4", "4faba57365bda03315ae9616c9d1d037");
    ("hand FatTree (default size)", "b86af02b4d1039a7723726c9047ec950");
    ("hand slimfly (default size)", "213845da90f84e19640288acab21f83e");
    ("hand fattree:3 (invalid)", "b423cedf5b9057e0797e0da12704b088");
    ("hand jellyfish deg=-1", "d3bfc7ff57ca66307fa0635bdd5df0e5");
    ("hand hypercube seed=-3", "0652c46da49dccd8d1a5f8d72c720b4b");
    ("tm rm1", "1ab4b2685c859a0cce28cd27b7d0b6f1");
    ("tm rm alias", "1ab4b2685c859a0cce28cd27b7d0b6f1");
    ("tm rm5", "5ea8e26cd00fd3d8a9f74985267e2c6d");
    ("tm RM5", "5ea8e26cd00fd3d8a9f74985267e2c6d");
    ("tm lm", "4cccf09004bee57a45b344c4a0526b8f");
    ("tm kodialam", "9285b10565332086540284cb62a42294");
    ("tm tmh", "2eedfd919987bf9705a15116d000f4bc");
    ("tm tmf", "391a41f73c1602c969406badcfa8a5d7");
    ("tm Bogus", "91cb14e1f62e5bf7a08c53ea63b0617b");
    ("solver exact", "feff107d6ded697032e29417d0b004b0");
    ("solver fptas", "822fe8e9651810f5b312334bf708d6cb");
    ("solver cuts", "1402ba57e4d8ca5b79e97018d9e2b573");
    ("seed 0", "4169822e758b01f0d93ff847f6ec35b9");
    ("seed -7", "20ab565f83e94d6ac17c8bdd27c09b92");
    ("inline instance", "b04351405dc232d01216d196507c882d");
    ("inline fptas eps 0.1", "57c9d147b8c60936d789507e6732bd21");
    ("eps 1e999", "5a17561ab7d5679876c69eb76d65baaa");
    ("eps 0.1", "957f30f69700a76222d44746f85dd5b0");
    ("eps 17 digits", "764cf03edf2e5066468400308be79030");
    ("tol 1e999", "c69f81f43fe7ab47b9de90d9e2e240fd");
    ("tol 0.1", "319e286b45aebb550f9bf45e16a752b7");
    ("tol 17 digits", "dccb57a6346f015a3372a582e1e66aee");
    ("budget 1e999", "fc06de7dc571b7d4769e91fb9dbf61e5");
    ("budget 0.1", "af40e6f314bb25a1d700ebacb32b8081");
    ("budget 17 digits", "e1181273e2c58c05888b9b2e3f008890");
    ("budget 1500", "c02a1e29f2dac3121d89b2eb2f2bf3b6");
    ("budget -0", "81b3039b9147bd966f2a4add5ba43c82");
  ]

let test_hash_pin_table () =
  let reqs = pin_requests () in
  Alcotest.(check int) "one pin per request" (List.length pinned_hashes)
    (List.length reqs);
  List.iter2
    (fun (label, r) (label', pinned) ->
      Alcotest.(check string) "table order" label' label;
      Alcotest.(check string) label pinned (Request.hash r))
    reqs pinned_hashes

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
  Alcotest.(check int) "compaction writes live entries" 3
    (Store.merge ~into:path []);
  let st4 = Store.open_ ~path in
  Alcotest.(check int) "compaction keeps live entries" 3 (Store.length st4)

(* Two-process regression: a child compacting in a loop
   ([Store.merge ~into:path []]) while the parent appends. The lock
   protocol must (a) never corrupt the file, (b) never lose an append
   to a rename swap, and (c) let the compactor preserve entries it
   never saw in memory. *)
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
    (* The compactor starts before most parent appends exist, so
       every rewrite must re-read the file to keep them. *)
    let code =
      try
        for _ = 1 to 40 do
          ignore (Store.merge ~into:path []);
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

(* Every serving path hands out the bytes of the miss that filled the
   entry, rendered once: a miss, an LRU hit, a hit promoted from the
   store, a coalesced duplicate in a batch and a hit after a reopen. The
   wire line carries those very bytes as its "result". *)
let test_every_path_serves_miss_bytes () =
  let path = temp_path ".ndjson" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let check_served what ~cached ~bytes (resp : Service.response) =
    Alcotest.(check bool) (what ^ ": cached") cached resp.Service.cached;
    Alcotest.(check string) (what ^ ": bytes") bytes resp.Service.result_bytes;
    Alcotest.(check string) (what ^ ": wire line")
      (Printf.sprintf {|{"hash":"%s","cached":%b,"result":%s}|}
         resp.Service.hash cached bytes)
      (Json.to_string (Service.response_json resp))
  in
  let a = req "hypercube:2" "rm1" in
  let b = req "hypercube:2" "lm" in
  let svc = Service.create ~capacity:1 ~store_path:path () in
  let miss = Service.handle svc a in
  let bytes = Json.to_string (Res.to_json miss.Service.result) in
  check_served "miss" ~cached:false ~bytes miss;
  check_served "LRU hit" ~cached:true ~bytes (Service.handle svc a);
  ignore (Service.handle svc b);
  let solves0 = counter "service.solves" in
  check_served "store-promoted hit" ~cached:true ~bytes (Service.handle svc a);
  check_served "LRU hit after promotion" ~cached:true ~bytes
    (Service.handle svc a);
  Alcotest.(check int) "promotion solves nothing" 0
    (counter "service.solves" - solves0);
  (match Service.store svc with
  | Some st -> Store.close st
  | None -> Alcotest.fail "store expected");
  let reopened = Service.create ~capacity:1 ~store_path:path () in
  check_served "reopened store" ~cached:true ~bytes (Service.handle reopened a);
  Alcotest.(check int) "reopen solves nothing" 0
    (counter "service.solves" - solves0);
  (match Service.store reopened with Some st -> Store.close st | None -> ());
  (* A batch's canonical miss and its coalesced duplicate. *)
  let c = req "hypercube:3" "rm1" in
  match Service.handle_batch (Service.create ~capacity:8 ()) [ c; c ] with
  | [ first; dup ] ->
    let bytes = Json.to_string (Res.to_json first.Service.result) in
    check_served "batch miss" ~cached:false ~bytes first;
    check_served "coalesced duplicate" ~cached:false ~bytes dup
  | _ -> Alcotest.fail "two responses expected"

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
  (* The document as written to BENCH_service.json, read back: it names
     its schema and carries the hit rate as a number (CI gates on that
     field). *)
  let text = Json.to_string ~indent:true (Loadgen.outcome_json cfg o) in
  match Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    Alcotest.(check (option string))
      "schema" (Some "topobench-service-bench-v1")
      (Option.bind (Json.member "schema" doc) Json.to_str);
    Alcotest.(check (option (float 1e-9))) "numeric hit_rate"
      (Some o.Loadgen.hit_rate)
      (Option.bind (Json.member "hit_rate" doc) Json.to_float)

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
  match
    Service.batch_lines svc (List.map (fun l -> Service.Framer.Line l) lines)
  with
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

(* A rejected line counts once in [service.errors] whichever front end
   read it; `topobench batch` prints "N error(s)" from that counter. *)
let test_batch_counts_rejection () =
  let svc = Service.create ~capacity:8 () in
  let errors0 = counter "service.errors" in
  let out =
    Service.batch_lines svc
      (List.map
         (fun l -> Service.Framer.Line l)
         [ {|{"topo":{"spec":"hypercube:2"},"tm":{"named":"lm"}}|}; "{oops" ])
  in
  Alcotest.(check int) "two documents" 2 (List.length out);
  Alcotest.(check int) "one error counted" 1
    (counter "service.errors" - errors0)

(* One cache hit — parse, hash, lookup, render — allocates a bounded
   number of minor words: about 790 here, against about 900 when every
   hit re-rendered its result's floats and about 2,600 when floats went
   through Printf, the spec was re-parsed on every hash and the printer
   built closures per node. The ceiling leaves 25%. *)
let hit_minor_words_ceiling = 990.0

let test_hit_allocation () =
  Tb_obs.Trace.disable ();
  let svc = Service.create ~capacity:8 () in
  let line =
    {|{"topo":{"spec":"hypercube:3"},"tm":{"named":"a2a"},"seed":42,"solver":"auto"}|}
  in
  let serve () =
    match Request.of_line line with
    | Ok r -> Json.to_string (Service.response_json (Service.handle svc r))
    | Error e -> Alcotest.fail e
  in
  let miss = serve () in
  ignore (serve ());
  let w0 = Gc.minor_words () in
  let hit = serve () in
  let words = Gc.minor_words () -. w0 in
  let result j =
    match Json.of_string j with
    | Ok doc -> Option.map Json.to_string (Json.member "result" doc)
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (option string)) "hit renders the miss's result"
    (result miss) (result hit);
  if words > hit_minor_words_ceiling then
    Alcotest.failf "one cache hit allocated %.0f minor words (ceiling %.0f)"
      words hit_minor_words_ceiling

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

(* The CLI's `topobench batch`: the file goes through the framer, so a
   line over the cap is rejected in its position, and the lines around
   it are answered. *)
let test_batch_overcap_line () =
  let path = temp_path ".ndjson" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc {|{"topo":{"spec":"hypercube:2"},"tm":{"named":"a2a"}}|};
      output_char oc '\n';
      output_string oc (String.make (Service.max_line_bytes + 1) 'x');
      output_string oc
        "\n{\"topo\":{\"spec\":\"hypercube:2\"},\"tm\":{\"named\":\"lm\"}}\n");
  let frames = ref [] in
  In_channel.with_open_bin path (fun ic ->
      Service.Framer.input_all
        (Service.Framer.create ~max:Service.max_line_bytes)
        ic
        (fun f -> frames := f :: !frames));
  let svc = Service.create ~capacity:8 () in
  match Service.batch_lines svc (List.rev !frames) with
  | [ ok1; err; ok2 ] ->
    Alcotest.(check bool) "line before answered" true
      (Json.member "result" ok1 <> None);
    Alcotest.(check (option string)) "over-cap line typed in place"
      (Some "bad_request")
      (Option.bind (Json.member "code" err) Json.to_str);
    Alcotest.(check bool) "line after answered" true
      (Json.member "result" ok2 <> None)
  | other ->
    Alcotest.failf "expected 3 output documents, got %d" (List.length other)

(* ---- The wire front end: one framer, one intake. ---- *)

module Framer = Service.Framer

let frames_of_chunks ~max chunks =
  let fr = Framer.create ~max in
  let out = ref [] in
  let emit f = out := f :: !out in
  List.iter
    (fun c ->
      (* Feed from the middle of a larger buffer, so [off] is exercised. *)
      let b = Bytes.of_string ("<<" ^ c ^ ">>") in
      Framer.feed fr b 2 (String.length c) emit)
    chunks;
  Framer.finish fr emit;
  List.rev !out

(* The reference: split on '\n'; the piece after the last '\n' is an
   unterminated final line, kept when non-empty. *)
let frames_reference ~max stream =
  let pieces = String.split_on_char '\n' stream in
  let n = List.length pieces in
  List.concat
    (List.mapi
       (fun i p ->
         if i = n - 1 && p = "" then []
         else if String.length p > max then [ Framer.Oversized ]
         else [ Framer.Line p ])
       pieces)

let pp_frame = function
  | Framer.Line s -> Printf.sprintf "Line %S" s
  | Framer.Oversized -> "Oversized"

let frames_t =
  Alcotest.testable
    (fun ppf f -> Format.pp_print_string ppf (pp_frame f))
    ( = )

let test_framer_edges () =
  let max = 4 in
  let check name chunks expected =
    Alcotest.(check (list frames_t))
      name expected (frames_of_chunks ~max chunks)
  in
  check "empty input" [] [];
  check "empty chunks" [ ""; "" ] [];
  check "exactly max accepted, max+1 rejected" [ "abcd\nabcde\nok\n" ]
    [ Framer.Line "abcd"; Framer.Oversized; Framer.Line "ok" ];
  check "\\r counts toward the cap" [ "abc\r\nabcd\r\n" ]
    [ Framer.Line "abc\r"; Framer.Oversized ];
  check "split inside a line" [ "a"; "b"; "c\nd"; "e\n" ]
    [ Framer.Line "abc"; Framer.Line "de" ];
  check "cap crossed mid-chunk" [ "ab"; "cdefg\nxy"; "z\n" ]
    [ Framer.Oversized; Framer.Line "xyz" ];
  check "unterminated last line" [ "a\nbc" ]
    [ Framer.Line "a"; Framer.Line "bc" ];
  check "unterminated oversized last line" [ "a\nbcdefgh" ]
    [ Framer.Line "a"; Framer.Oversized ];
  check "blank lines are frames" [ "\n\n" ] [ Framer.Line ""; Framer.Line "" ];
  (* [Oversized] fires as the cap is crossed, before the line ends. *)
  let fr = Framer.create ~max in
  let seen = ref [] in
  Framer.feed fr (Bytes.of_string "abcde") 0 5 (fun f -> seen := f :: !seen);
  Alcotest.(check (list frames_t)) "fires at the cap" [ Framer.Oversized ] !seen

(* Every chunking of a stream of short lines (some over the cap, with
   '\n' and '\r\n' endings, maybe unterminated at the end) yields the
   frames of a naive split on '\n'. *)
let test_framer_chunking =
  let max = 6 in
  let gen =
    QCheck.Gen.(
      let line =
        string_size
          ~gen:(oneofl [ 'a'; 'b'; ' '; '#'; '\r' ])
          (int_range 0 (max + 3))
      in
      let ending = oneofl [ "\n"; "\r\n" ] in
      let* lines = list_size (int_range 0 8) (pair line ending) in
      let* last = oneof [ return ""; line ] in
      let stream =
        String.concat "" (List.map (fun (l, e) -> l ^ e) lines) ^ last
      in
      let n = String.length stream in
      let* cuts = list_size (int_range 0 12) (int_range 0 n) in
      let cuts = List.sort_uniq compare (0 :: n :: cuts) in
      let rec chunks = function
        | a :: (b :: _ as rest) -> String.sub stream a (b - a) :: chunks rest
        | _ -> []
      in
      return (stream, chunks cuts))
  in
  QCheck.Test.make ~name:"framer chunking" ~count:500
    (QCheck.make ~print:(fun (s, cs) ->
         Printf.sprintf "%S cut as [%s]" s
           (String.concat "; " (List.map (Printf.sprintf "%S") cs)))
       gen)
    (fun (stream, chunks) ->
      frames_of_chunks ~max chunks = frames_reference ~max stream)

(* [intake] returns [None], a request, or a typed [bad_request] — never
   an exception — on mutations of real request lines. *)
let test_intake_never_raises =
  let seeds =
    [
      {|{"topo":{"spec":"hypercube:2"},"tm":{"named":"rm1"}}|};
      {|{"topo":{"spec":"hypercube:2"},"tm":{"named":"lm"}}|};
      {|{"topo":{"spec":"hypercube:2"},"tm":{"named":"rm"}}|};
      {|{"topo":{"spec":"hypercube:3,deg=6,hosts=1,seed=42"},|}
      ^ {|"tm":{"named":"rm1"},"solver":"auto","eps":0.4,"tol":0.04,|}
      ^ {|"budget_ms":1e999,"seed":42}|};
      {|{"topo":{"spec":"hypercube:2"},"tm":{"named":"a2a"},"solver":"fptas",|}
      ^ {|"eps":0.3,"tol":0.1,"budget_ms":1000}|};
      Json.to_string
        (Request.to_json
           (let topo = Tb_topo.Hypercube.make ~dim:2 () in
            Request.of_instance topo (Tb_tm.Synthetic.all_to_all topo)));
      "# comment";
      "";
    ]
  in
  let deep = String.make 10_000 '[' in
  let mutate =
    QCheck.Gen.(
      let insert s piece =
        let+ i = int_range 0 (String.length s) in
        String.sub s 0 i ^ piece ^ String.sub s i (String.length s - i)
      in
      let one s =
        frequency
          [
            ( 3,
              if s = "" then return s
              else
                let* i = int_range 0 (String.length s - 1) in
                let+ c = char in
                String.mapi (fun j d -> if j = i then c else d) s );
            (2, map (fun i -> String.sub s 0 (min i (String.length s))) nat);
            (2, oneofl [ "inf"; "nan"; "1e999"; "-1e999"; "NaN" ] >>= insert s);
            ( 1,
              (* A duplicate key: repeat a member right after the '{'. *)
              let+ dup =
                oneofl
                  [ {|"tm":{"named":"a2a"},|}; {|"topo":{"spec":"x"},|};
                    {|"eps":0.5,|}; {|"seed":1,|} ]
              in
              if String.length s > 0 && s.[0] = '{' then
                "{" ^ dup ^ String.sub s 1 (String.length s - 1)
              else s );
            (1, oneofl [ deep; deep ^ String.make 10_000 ']' ] >>= insert s);
          ]
      in
      let* s = oneofl seeds in
      let* k = int_range 1 3 in
      let rec go k s = if k = 0 then return s else one s >>= go (k - 1) in
      go k s)
  in
  QCheck.Test.make ~name:"intake never raises" ~count:400
    (QCheck.make ~print:(fun s -> Printf.sprintf "%S" s) mutate)
    (fun line ->
      match Service.intake (Framer.Line line) with
      | None | Some (Ok _) -> true
      | Some (Error j) ->
        Option.bind (Json.member "code" j) Json.to_str = Some "bad_request")

let test_intake_oversized () =
  match Service.intake Framer.Oversized with
  | Some (Error j) ->
    Alcotest.(check (option string)) "typed" (Some "bad_request")
      (Option.bind (Json.member "code" j) Json.to_str);
    let msg =
      Printf.sprintf "request line exceeds %d bytes" Service.max_line_bytes
    in
    Alcotest.(check (option string)) "message" (Some msg)
      (Option.bind (Json.member "error" j) Json.to_str)
  | _ -> Alcotest.fail "an oversized frame must be a typed error"

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
          Alcotest.test_case "hash pin table" `Quick test_hash_pin_table;
          Alcotest.test_case "scale-spec hash golden" `Quick
            test_hash_stability_scale_spec;
          Alcotest.test_case "rejects bad eps and tol" `Quick
            test_request_rejects_bad_eps_tol;
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
          Alcotest.test_case "every path serves the miss's bytes" `Quick
            test_every_path_serves_miss_bytes;
          Alcotest.test_case "two-tier reopen" `Quick
            test_two_tier_reopen_bit_identical;
          Alcotest.test_case "eviction metric" `Quick test_eviction_metric;
          Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
          Alcotest.test_case "allocation one hit" `Quick test_hit_allocation;
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
          Alcotest.test_case "over-cap line typed in place" `Quick
            test_batch_overcap_line;
          Alcotest.test_case "counts a rejected line" `Quick
            test_batch_counts_rejection;
        ] );
      ( "wire",
        [
          Alcotest.test_case "framer edge cases" `Quick test_framer_edges;
          Qseed.to_alcotest test_framer_chunking;
          Alcotest.test_case "intake oversized frame" `Quick
            test_intake_oversized;
          Qseed.to_alcotest test_intake_never_raises;
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
