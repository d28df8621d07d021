module Json = Tb_obs.Json
module Metrics = Tb_obs.Metrics
module Trace = Tb_obs.Trace
module Hdr = Tb_obs.Hdr
module Events = Tb_obs.Events
module Convergence = Tb_obs.Convergence
module Progress = Tb_obs.Progress
module Graph = Tb_graph.Graph
module Commodity = Tb_flow.Commodity
module Fleischer = Tb_flow.Fleischer

let check_float = Alcotest.(check (float 1e-9))

(* ---- Json ---- *)

let sample_json =
  Json.Obj
    [
      ("name", Json.String "he \"llo\"\nworld");
      ("count", Json.Int 42);
      ("ratio", Json.Float 0.14159265358979312);
      ("flag", Json.Bool true);
      ("nothing", Json.Null);
      ("items", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
    ]

let test_json_roundtrip () =
  List.iter
    (fun indent ->
      match Json.of_string (Json.to_string ~indent sample_json) with
      | Ok v -> Alcotest.(check bool) "round-trips" true (v = sample_json)
      | Error e -> Alcotest.fail ("parse error: " ^ e))
    [ false; true ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted invalid %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_accessors () =
  let v = sample_json in
  Alcotest.(check (option int)) "int member" (Some 42)
    (Option.bind (Json.member "count" v) Json.to_int);
  Alcotest.(check (option string)) "missing member" None
    (Option.bind (Json.member "nope" v) Json.to_str);
  check_float "int coerces to float" 42.0
    (Option.get (Option.bind (Json.member "count" v) Json.to_float));
  Alcotest.(check (option int)) "first of duplicate keys" (Some 1)
    (Option.bind
       (Json.member "k" (Json.Obj [ ("k", Json.Int 1); ("k", Json.Int 2) ]))
       Json.to_int);
  (* Raw bytes are opaque to the accessors and printed verbatim, also
     inside an indented document. *)
  let raw = Json.Raw {|{"k":1,"l":[2.5]}|} in
  Alcotest.(check bool) "no member of a raw value" true
    (Json.member "k" raw = None);
  Alcotest.(check bool) "raw is no number" true
    (Json.to_float (Json.Raw "1.0") = None && Json.to_int (Json.Raw "1") = None);
  Alcotest.(check string) "raw un-indented" "{\n  \"r\": {\"k\":1,\"l\":[2.5]}\n}"
    (Json.to_string ~indent:true (Json.Obj [ ("r", raw) ]))

(* ---- Printer equivalence ----

   Request hashes and stored results are keyed by the printer's bytes,
   so its fast paths (the C float formatter, the one-scan escape, the
   closure-free printer) must agree with the plain Printf printer written
   out below, byte for byte. *)

let printf_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_nan x then "null"
  else if x = infinity then "1e999"
  else if x = neg_infinity then "-1e999"
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let per_char_escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec reference_print buf ~indent ~level v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let seq opening closing items print_item =
    Buffer.add_char buf opening;
    nl ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          nl ()
        end;
        pad (level + 1);
        print_item item)
      items;
    nl ();
    pad level;
    Buffer.add_char buf closing
  in
  match v with
  | Json.Null -> Buffer.add_string buf "null"
  | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Json.Int n -> Buffer.add_string buf (string_of_int n)
  | Json.Float x -> Buffer.add_string buf (printf_float x)
  | Json.String s -> per_char_escape buf s
  | Json.Raw s -> Buffer.add_string buf s
  | Json.List [] -> Buffer.add_string buf "[]"
  | Json.List items ->
    seq '[' ']' items (reference_print buf ~indent ~level:(level + 1))
  | Json.Obj [] -> Buffer.add_string buf "{}"
  | Json.Obj fields ->
    seq '{' '}' fields (fun (k, item) ->
        per_char_escape buf k;
        Buffer.add_string buf (if indent then ": " else ":");
        reference_print buf ~indent ~level:(level + 1) item)

let reference_to_string ~indent v =
  let buf = Buffer.create 64 in
  reference_print buf ~indent ~level:0 v;
  Buffer.contents buf

let float_edge_cases =
  [ 0.0; -0.0; infinity; neg_infinity; nan; 1e15; -1e15; 1e15 -. 1.0;
    999999999999999.5; 1e16; 1e21; 1e22; Float.max_float;
    -.Float.max_float; Float.min_float; 5e-324; Float.min_float /. 3.0;
    Float.epsilon; 0.1; 0.1 +. 0.2; 1.0 /. 3.0; 1e-5; 1e-7; 0.5; -2.5;
    123456789012345.6; 2.0000000000000031; 4.35e-10 ]

let test_float_printer_edges () =
  List.iter
    (fun x ->
      Alcotest.(check string) (Printf.sprintf "%h" x) (printf_float x)
        (Json.float_to_string x);
      Alcotest.(check string)
        (Printf.sprintf "%h in a tree" x)
        (printf_float x)
        (Json.to_string (Json.Float x)))
    float_edge_cases

(* Uniform bit patterns are nearly all huge or tiny; short decimals,
   integers and the 1e15 switch-over get their own share. *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        (4, map Int64.float_of_bits ui64);
        ( 2,
          map2
            (fun m k -> float_of_int m /. (10.0 ** float_of_int k))
            (int_range (-10_000_000) 10_000_000)
            (int_range 0 12) );
        (1, map (fun d -> 1e15 +. (float_of_int d /. 4.0)) (int_range (-8) 8));
        (1, map float_of_int (int_range (-1_000_000) 1_000_000));
      ])

let test_float_printer_random =
  QCheck.Test.make ~name:"float printer vs Printf" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_float)
    (fun x -> Json.float_to_string x = printf_float x)

let gen_wire_string =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (3, char_range 'a' 'z');
             (1, char_range '\000' '\255');
             ( 1,
               oneofl
                 [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127';
                   '\128'; '\255' ] );
           ])
      (int_range 0 40))

let test_escape_random =
  QCheck.Test.make ~name:"escape vs per-character reference" ~count:2_000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_wire_string)
    (fun s ->
      let rendered = Json.to_string (Json.String s) in
      let buf = Buffer.create 16 in
      per_char_escape buf s;
      rendered = Buffer.contents buf
      && Json.of_string rendered = Ok (Json.String s))

let gen_tree =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map (fun x -> Json.Float x) gen_float;
                 map (fun s -> Json.String s) gen_wire_string;
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map
                     (fun l -> Json.List l)
                     (list_size (int_range 0 4) (self (n / 4))) );
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_range 0 4)
                        (pair gen_wire_string (self (n / 4)))) );
               ]))

let test_printer_random =
  QCheck.Test.make ~name:"printer vs reference, both layouts" ~count:500
    (QCheck.make ~print:(fun v -> reference_to_string ~indent:false v) gen_tree)
    (fun v ->
      List.for_all
        (fun indent -> Json.to_string ~indent v = reference_to_string ~indent v)
        [ false; true ])

(* Preorder nodes of a tree, and the tree with node [k] (preorder)
   replaced by [f node]. *)
let rec size = function
  | Json.List l -> List.fold_left (fun n v -> n + size v) 1 l
  | Json.Obj l -> List.fold_left (fun n (_, v) -> n + size v) 1 l
  | _ -> 1

let replace_node k f v =
  let k = ref k in
  let rec go v =
    if !k = 0 then begin
      decr k;
      f v
    end
    else begin
      decr k;
      match v with
      | Json.List l -> Json.List (List.map go l)
      | Json.Obj l -> Json.Obj (List.map (fun (key, v) -> (key, go v)) l)
      | v -> v
    end
  in
  go v

let test_raw_subtree_random =
  QCheck.Test.make ~name:"raw subtree prints the subtree's bytes" ~count:500
    (QCheck.make
       ~print:(fun (v, k) ->
         Printf.sprintf "node %d of %s" k (reference_to_string ~indent:false v))
       QCheck.Gen.(pair gen_tree (int_bound 1_000)))
    (fun (v, k) ->
      let raw =
        replace_node (k mod size v) (fun n -> Json.Raw (Json.to_string n)) v
      in
      Json.to_string raw = Json.to_string v)

let rec has_raw = function
  | Json.Raw _ -> true
  | Json.List l -> List.exists has_raw l
  | Json.Obj l -> List.exists (fun (_, v) -> has_raw v) l
  | _ -> false

let test_parse_never_raw =
  QCheck.Test.make ~name:"of_string never yields Raw" ~count:500
    (QCheck.make ~print:(fun v -> reference_to_string ~indent:false v) gen_tree)
    (fun v ->
      List.for_all
        (fun indent ->
          match Json.of_string (Json.to_string ~indent v) with
          | Ok parsed -> not (has_raw parsed)
          | Error _ -> false)
        [ false; true ])

(* ---- Metrics ---- *)

let test_counter () =
  let c = Metrics.counter "test.counter" in
  let before = Metrics.count c in
  Metrics.incr c;
  Metrics.add c 10;
  Alcotest.(check int) "count" (before + 11) (Metrics.count c);
  Alcotest.(check bool) "same handle for same name" true
    (Metrics.counter "test.counter" == c);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: \"test.counter\" already registered as another kind")
    (fun () -> ignore (Metrics.gauge "test.counter"))

let test_timer () =
  let t = Metrics.timer "test.timer" in
  let x = Metrics.time t (fun () -> 7) in
  Alcotest.(check int) "returns value" 7 x;
  Metrics.record_ns t 2_000_000L;
  Alcotest.(check int) "two samples" 2 (Metrics.timer_count t);
  Alcotest.(check bool) "total >= recorded 2ms" true
    (Metrics.timer_total_ms t >= 2.0)

let test_histogram () =
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 1.0; 2.0; 4.0; 1024.0 ];
  Alcotest.(check int) "count" 4 (Metrics.histogram_count h);
  check_float "mean" (1031.0 /. 4.0) (Metrics.histogram_mean h);
  let p50 = Metrics.histogram_quantile h 0.5 in
  Alcotest.(check bool) "p50 in a sane bracket" true (p50 >= 2.0 && p50 <= 8.0);
  check_float "p100 capped at max" 1024.0 (Metrics.histogram_quantile h 1.0)

let test_metrics_json_and_reset () =
  let c = Metrics.counter "test.json_counter" in
  Metrics.incr c;
  (match Json.member "test.json_counter" (Metrics.to_json ()) with
  | Some entry ->
    Alcotest.(check (option int)) "exported count" (Some (Metrics.count c))
      (Option.bind (Json.member "count" entry) Json.to_int)
  | None -> Alcotest.fail "counter missing from to_json");
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.count c)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_prometheus_exposition () =
  let c = Metrics.counter "test.prom.counter" in
  Metrics.add c 5;
  let h = Metrics.hdr "test.prom.lat_ms" in
  List.iter (Metrics.observe_hdr h) [ 1.0; 2.0; 3.0 ];
  let text = Metrics.to_prometheus () in
  let has sub = Alcotest.(check bool) sub true (contains ~sub text) in
  (* Dots sanitize to underscores; counters expose their raw count. *)
  has "# TYPE test_prom_counter counter";
  has "test_prom_counter 5";
  (* Hdr histograms render as summaries with quantile labels. *)
  has "# TYPE test_prom_lat_ms summary";
  has "test_prom_lat_ms{quantile=\"0.99\"}";
  has "test_prom_lat_ms_count 3";
  has "test_prom_lat_ms_sum 6";
  (* The snapshot-file path must render the same exposition. *)
  match Metrics.prometheus_of_json (Metrics.to_json ()) with
  | Ok from_snapshot ->
    Alcotest.(check bool) "snapshot rendering has same counter line" true
      (contains ~sub:"test_prom_counter 5" from_snapshot)
  | Error e -> Alcotest.fail ("prometheus_of_json: " ^ e)

(* ---- Hdr ---- *)

(* Deterministic samples spanning three decades (1..1000 "ms"), enough
   mass that adjacent order statistics differ far less than the
   histogram's precision contract. *)
let hdr_samples n =
  let state = ref 0x2545F491 in
  Array.init n (fun _ ->
      state := ((1103515245 * !state) + 12345) land 0x3FFFFFFF;
      let u = float_of_int !state /. float_of_int 0x40000000 in
      Float.pow 10.0 (3.0 *. u))

let oracle_quantile sorted q =
  let n = Array.length sorted in
  let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) idx))

let test_hdr_quantiles_vs_oracle () =
  let samples = hdr_samples 10_000 in
  let h = Hdr.create () in
  Array.iter (Hdr.record h) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let last = Array.length sorted - 1 in
  Alcotest.(check int) "count" 10_000 (Hdr.count h);
  check_float "min exact" sorted.(0) (Hdr.min_value h);
  check_float "max exact" sorted.(last) (Hdr.max_value h);
  check_float "q=0 exact" sorted.(0) (Hdr.quantile h 0.0);
  check_float "q=1 exact" sorted.(last) (Hdr.quantile h 1.0);
  List.iter
    (fun q ->
      let est = Hdr.quantile h q in
      let truth = oracle_quantile sorted q in
      let rel = Float.abs (est -. truth) /. truth in
      if rel > 0.02 then
        Alcotest.failf "q=%.3f: estimated %.4f vs true %.4f (rel err %.4f)" q
          est truth rel)
    [ 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

let test_hdr_merge_of_shards_equals_whole () =
  let samples = hdr_samples 5_000 in
  let whole = Hdr.create () in
  let parts = Array.init 4 (fun _ -> Hdr.create ()) in
  Array.iteri
    (fun i v ->
      Hdr.record whole v;
      Hdr.record parts.(i mod 4) v)
    samples;
  let merged = Hdr.create () in
  Array.iter (fun p -> Hdr.merge ~into:merged p) parts;
  Alcotest.(check int) "count" (Hdr.count whole) (Hdr.count merged);
  (* Bucket counts are additive integers: quantiles are bit-identical,
     not merely close. The sum is a float re-accumulated in a different
     order, so it gets an ulp-scale tolerance. *)
  Alcotest.(check (float 1e-6)) "sum" (Hdr.sum whole) (Hdr.sum merged);
  check_float "min" (Hdr.min_value whole) (Hdr.min_value merged);
  check_float "max" (Hdr.max_value whole) (Hdr.max_value merged);
  List.iter
    (fun q ->
      check_float
        (Printf.sprintf "q=%.3f bit-identical" q)
        (Hdr.quantile whole q) (Hdr.quantile merged q))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ];
  (* The sharded recorder is the same machinery behind a domain-indexed
     shard array; a single-domain stream must read back identically. *)
  let sh = Hdr.sharded ~shards:4 () in
  Array.iter (Hdr.record_sharded sh) samples;
  let m = Hdr.merged sh in
  Alcotest.(check int) "sharded count" (Hdr.count whole) (Hdr.count m);
  check_float "sharded p99" (Hdr.quantile whole 0.99) (Hdr.quantile m 0.99);
  Hdr.clear_sharded sh;
  Alcotest.(check int) "clear_sharded" 0 (Hdr.count (Hdr.merged sh))

(* ---- Events (ndjson access-log substrate) ---- *)

let with_events_tmp f =
  let path = Filename.temp_file "tb_obs_events" ".ndjson" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        (path :: List.map (fun i -> path ^ "." ^ string_of_int i) [ 1; 2; 3 ]))
    (fun () -> f path)

let int_field name r = Option.bind (Json.member name r) Json.to_int

let test_events_roundtrip () =
  with_events_tmp @@ fun path ->
  let w = Events.open_ path in
  Events.write w [ ("i", Json.Int 1); ("s", Json.String "x\ny") ];
  Events.write w [ ("i", Json.Int 2); ("f", Json.Float 2.5) ];
  Events.close w;
  let records, skipped = Events.read path in
  Alcotest.(check int) "no skips" 0 skipped;
  match records with
  | [ r1; r2 ] ->
    Alcotest.(check (option int)) "first record" (Some 1) (int_field "i" r1);
    Alcotest.(check (option string)) "escaped string survives" (Some "x\ny")
      (Option.bind (Json.member "s" r1) Json.to_str);
    Alcotest.(check (option int)) "order preserved" (Some 2) (int_field "i" r2)
  | other -> Alcotest.failf "expected 2 records, got %d" (List.length other)

let test_events_torn_final_line () =
  with_events_tmp @@ fun path ->
  let w = Events.open_ path in
  Events.write w [ ("i", Json.Int 1) ];
  Events.write w [ ("i", Json.Int 2) ];
  Events.close w;
  (* A writer killed mid-record leaves a truncated, unterminated line. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc {|{"i": 3, "trunc|};
  close_out oc;
  let records, skipped = Events.read path in
  Alcotest.(check int) "torn line skipped, not fatal" 1 skipped;
  Alcotest.(check int) "intact records survive" 2 (List.length records);
  (* Reopening for append must newline-terminate the torn line first,
     so the next record never concatenates onto it. *)
  let w2 = Events.open_ path in
  Events.write w2 [ ("i", Json.Int 4) ];
  Events.close w2;
  let records2, skipped2 = Events.read path in
  Alcotest.(check int) "still one skip" 1 skipped2;
  Alcotest.(check int) "appended record readable" 3 (List.length records2);
  let last = List.nth records2 (List.length records2 - 1) in
  Alcotest.(check (option int)) "new record intact" (Some 4)
    (int_field "i" last)

let test_events_rotation () =
  with_events_tmp @@ fun path ->
  let w = Events.open_ ~max_bytes:256 ~max_keep:2 path in
  for i = 1 to 40 do
    Events.write w
      [ ("i", Json.Int i); ("pad", Json.String (String.make 16 'x')) ]
  done;
  Events.close w;
  Alcotest.(check bool) "rotated file exists" true
    (Sys.file_exists (path ^ ".1"));
  Alcotest.(check bool) "max_keep honored" false
    (Sys.file_exists (path ^ ".3"));
  (* Every surviving file is whole ndjson, and the newest record is in
     the live file. *)
  let records, skipped = Events.read path in
  Alcotest.(check int) "live file parses clean" 0 skipped;
  Alcotest.(check bool) "live file non-empty" true (records <> []);
  let last = List.nth records (List.length records - 1) in
  Alcotest.(check (option int)) "newest record in live file" (Some 40)
    (int_field "i" last);
  let _, skipped1 = Events.read (path ^ ".1") in
  Alcotest.(check int) "rotated file parses clean" 0 skipped1

(* One torn tail, three users of the record log: the rotating writer,
   the result store and the sweep checkpoint. Each writes three records,
   the file is cut inside the third line, and a reopen must skip (and
   count) the torn line, keep the first two, and start the next record
   on its own line. *)

module Store = Tb_service.Store
module Checkpoint = Tb_harness.Checkpoint

(* [append path ids] writes one record per id in one writer session;
   [ids path] reopens [path] and lists the ids that read back. *)
type log_user = {
  user : string;
  append : string -> int list -> unit;
  ids : string -> int list;
}

let candidates = [ 1; 2; 3; 4 ]

let log_users =
  [
    {
      user = "events";
      append =
        (fun path ids ->
          let w = Events.open_ path in
          List.iter (fun i -> Events.write w [ ("i", Json.Int i) ]) ids;
          Events.close w);
      ids =
        (fun path -> List.filter_map (int_field "i") (fst (Events.read path)));
    };
    {
      user = "store";
      append =
        (fun path ids ->
          let st = Store.open_ ~path in
          List.iter
            (fun i ->
              Store.append st (Printf.sprintf "h%d" i)
                (Json.Obj [ ("value", Json.Int i) ]))
            ids;
          Store.close st);
      ids =
        (fun path ->
          let st = Store.open_ ~path in
          List.filter
            (fun i -> Store.mem st (Printf.sprintf "h%d" i))
            candidates);
    };
    {
      user = "checkpoint";
      append =
        (fun path ids ->
          let c = Checkpoint.load ~path in
          List.iter
            (fun i -> Checkpoint.record c (Printf.sprintf "k%d" i) (Json.Int i))
            ids);
      ids =
        (fun path ->
          let c = Checkpoint.load ~path in
          List.filter
            (fun i -> Checkpoint.find c (Printf.sprintf "k%d" i) <> None)
            candidates);
    };
  ]

let test_record_log_torn_tail () =
  List.iter
    (fun u ->
      with_events_tmp @@ fun path ->
      let check_ids = Alcotest.(check (list int)) in
      u.append path [ 1; 2; 3 ];
      Unix.truncate path ((Unix.stat path).Unix.st_size - 4);
      let _, skipped = Events.read path in
      Alcotest.(check int) (u.user ^ ": torn line counted") 1 skipped;
      check_ids (u.user ^ ": earlier records survive") [ 1; 2 ] (u.ids path);
      u.append path [ 4 ];
      let _, skipped = Events.read path in
      Alcotest.(check int) (u.user ^ ": still one skip") 1 skipped;
      check_ids (u.user ^ ": next record on its own line") [ 1; 2; 4 ]
        (u.ids path);
      if Sys.file_exists (path ^ ".lock") then Sys.remove (path ^ ".lock"))
    log_users

(* The exact bytes the store and the access log write for two appends,
   a torn tail, then one more append: the shared record log must not
   move either format. *)
let test_record_log_bytes () =
  let torn path s =
    let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
    output_string oc s;
    close_out oc
  in
  let contents path = In_channel.with_open_bin path In_channel.input_all in
  (with_events_tmp @@ fun path ->
   let st = Store.open_ ~path in
   Store.append st "h1" (Json.Obj [ ("value", Json.Float 1.5) ]);
   Store.append st "h2" (Json.Obj [ ("value", Json.Float 2.5) ]);
   Store.close st;
   torn path {|{"hash":"h3","result":{"val|};
   let st = Store.open_ ~path in
   Store.append st "h4" (Json.Obj [ ("value", Json.Float 4.5) ]);
   Store.close st;
   Sys.remove (path ^ ".lock");
   Alcotest.(check string) "store bytes"
     "{\"hash\":\"h1\",\"result\":{\"value\":1.5}}\n\
      {\"hash\":\"h2\",\"result\":{\"value\":2.5}}\n\
      {\"hash\":\"h3\",\"result\":{\"val\n\
      {\"hash\":\"h4\",\"result\":{\"value\":4.5}}\n"
     (contents path));
  with_events_tmp @@ fun path ->
  let w = Events.open_ path in
  Events.write w [ ("i", Json.Int 1); ("s", Json.String "x") ];
  Events.write w [ ("i", Json.Int 2); ("f", Json.Float 2.5) ];
  Events.close w;
  torn path {|{"i":3,"trunc|};
  let w = Events.open_ path in
  Events.write w [ ("i", Json.Int 4) ];
  Events.close w;
  Alcotest.(check string) "events bytes"
    "{\"i\":1,\"s\":\"x\"}\n{\"i\":2,\"f\":2.5}\n{\"i\":3,\"trunc\n{\"i\":4}\n"
    (contents path)

(* ---- Trace ---- *)

let event_named name events =
  List.find_opt
    (fun e -> Json.member "name" e = Some (Json.String name))
    events

let field name e = Option.get (Option.bind (Json.member name e) Json.to_float)

let test_trace_nested_spans () =
  Trace.clear ();
  Trace.enable ();
  Trace.span "outer" (fun () ->
      Trace.span "inner" (fun () -> ignore (Sys.opaque_identity 1));
      Trace.counter "series" [ ("v", 1.5) ]);
  Trace.disable ();
  (* Round-trip through the printer and parser: the exported document
     must be valid JSON, not just a string we hope Chrome accepts. *)
  let doc =
    match Json.of_string (Json.to_string (Trace.to_json ())) with
    | Ok v -> v
    | Error e -> Alcotest.fail ("exported trace unparseable: " ^ e)
  in
  let events =
    Option.get (Option.bind (Json.member "traceEvents" doc) Json.to_list)
  in
  Alcotest.(check int) "three events" 3 (List.length events);
  let outer = Option.get (event_named "outer" events) in
  let inner = Option.get (event_named "inner" events) in
  Alcotest.(check (option string)) "complete event phase" (Some "X")
    (Option.bind (Json.member "ph" outer) Json.to_str);
  (* Nesting: the inner span must be contained in the outer one. *)
  Alcotest.(check bool) "inner starts after outer" true
    (field "ts" inner >= field "ts" outer);
  Alcotest.(check bool) "inner ends before outer" true
    (field "ts" inner +. field "dur" inner
    <= field "ts" outer +. field "dur" outer +. 1e-6);
  let c = Option.get (event_named "series" events) in
  Alcotest.(check (option string)) "counter phase" (Some "C")
    (Option.bind (Json.member "ph" c) Json.to_str);
  Trace.clear ()

let test_trace_disabled_records_nothing () =
  Trace.clear ();
  Alcotest.(check bool) "disabled by default" false (Trace.is_enabled ());
  Trace.span "ghost" (fun () -> ());
  Trace.counter "ghost" [ ("v", 1.0) ];
  Trace.instant "ghost";
  match Json.member "traceEvents" (Trace.to_json ()) with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "disabled tracing buffered events"

let test_trace_ring_overwrites_oldest () =
  let default_cap = Trace.capacity () in
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.set_capacity default_cap)
  @@ fun () ->
  Trace.set_capacity 4;
  Alcotest.(check int) "capacity readable" 4 (Trace.capacity ());
  Trace.enable ();
  for i = 1 to 10 do
    Trace.instant (Printf.sprintf "e%d" i)
  done;
  Trace.disable ();
  Alcotest.(check int) "overwrites counted" 6 (Trace.dropped ());
  let doc = Trace.to_json () in
  let events =
    Option.get (Option.bind (Json.member "traceEvents" doc) Json.to_list)
  in
  Alcotest.(check int) "ring holds capacity" 4 (List.length events);
  (* The ring keeps the most recent window: newest survive, oldest go. *)
  Alcotest.(check bool) "newest kept" true (event_named "e10" events <> None);
  Alcotest.(check bool) "window starts at e7" true
    (event_named "e7" events <> None);
  Alcotest.(check bool) "oldest dropped" true (event_named "e1" events = None);
  Alcotest.(check (option int)) "droppedEvents exported" (Some 6)
    (Option.bind (Json.member "droppedEvents" doc) Json.to_int);
  (* Resizing clears the buffer and the dropped counter. *)
  Trace.set_capacity 8;
  Alcotest.(check int) "set_capacity zeroes dropped" 0 (Trace.dropped ());
  Alcotest.check_raises "capacity below 1 rejected"
    (Invalid_argument "Trace.set_capacity") (fun () -> Trace.set_capacity 0)

(* ---- Convergence sink on a real solve ---- *)

let cube3 =
  Graph.of_unit_edges ~n:8
    [ (0, 1); (2, 3); (4, 5); (6, 7); (0, 2); (1, 3); (4, 6); (5, 7); (0, 4);
      (1, 5); (2, 6); (3, 7) ]

let test_fleischer_convergence_trace () =
  let cs =
    [| Commodity.make ~src:0 ~dst:7 ~demand:1.0;
       Commodity.make ~src:3 ~dst:4 ~demand:1.0;
       Commodity.make ~src:5 ~dst:2 ~demand:1.0 |]
  in
  let tol = 0.03 in
  let sink, samples = Convergence.recorder () in
  let r = Fleischer.solve ~tol ~on_check:sink cube3 cs in
  let samples = samples () in
  Alcotest.(check bool) "recorded at least two checks" true
    (List.length samples >= 2);
  (* The solver reports its *best* bounds: lower must never decrease,
     upper never increase, phase counts strictly advance. *)
  ignore
    (List.fold_left
       (fun prev (s : Convergence.sample) ->
         (match prev with
         | None -> ()
         | Some (p : Convergence.sample) ->
           Alcotest.(check bool) "phases advance" true (s.phase >= p.phase);
           Alcotest.(check bool) "lower non-decreasing" true
             (s.lower >= p.lower -. 1e-12);
           Alcotest.(check bool) "upper non-increasing" true
             (s.upper <= p.upper +. 1e-12);
           Alcotest.(check bool) "time advances" true (s.t_us >= p.t_us));
         Alcotest.(check bool) "eps positive" true (s.eps > 0.0);
         Some s)
       None samples);
  let last = List.nth samples (List.length samples - 1) in
  Alcotest.(check bool) "final bracket within 1+tol" true
    (last.upper /. last.lower <= 1.0 +. tol +. 1e-9);
  (* The sample bracket and the rescaled result agree on the ratio. *)
  check_float "bracket ratio preserved by rescaling"
    (last.upper /. last.lower) (r.Fleischer.upper /. r.Fleischer.lower)

let test_tracing_sink_emits_bounds () =
  let cs = [| Commodity.make ~src:0 ~dst:7 ~demand:1.0 |] in
  Trace.clear ();
  Trace.enable ();
  ignore (Fleischer.solve cube3 cs);
  Trace.disable ();
  let events =
    Option.get (Option.bind (Json.member "traceEvents" (Trace.to_json ())) Json.to_list)
  in
  Alcotest.(check bool) "has fleischer.solve span" true
    (event_named "fleischer.solve" events <> None);
  Alcotest.(check bool) "has bound samples" true
    (event_named "fleischer.bounds" events <> None);
  Alcotest.(check bool) "has dijkstra counters" true
    (event_named "dijkstra" events <> None);
  Trace.clear ()

(* ---- Progress ---- *)

let test_progress_fmt () =
  Alcotest.(check string) "seconds" "5.0s" (Progress.fmt_seconds 5.0);
  Alcotest.(check string) "minutes" "2m05s" (Progress.fmt_seconds 125.0);
  Alcotest.(check string) "hours" "1h01m" (Progress.fmt_seconds 3660.0)

let test_progress_counts () =
  let buf = Filename.temp_file "tb_obs" ".progress" in
  let oc = open_out buf in
  let p = Progress.create ~out:oc ~label:"sweep" 3 in
  Progress.step p;
  Progress.step p;
  Progress.step p;
  close_out oc;
  let ic = open_in buf in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove buf;
  Alcotest.(check int) "one line per step" 3 (List.length !lines);
  let final = List.hd !lines in
  Alcotest.(check bool) "final line reports completion" true
    (String.length final >= 15 && String.sub final 0 15 = "sweep: 3/3 done")

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "float printer edge cases" `Quick
            test_float_printer_edges;
          Qseed.to_alcotest test_float_printer_random;
          Qseed.to_alcotest test_escape_random;
          Qseed.to_alcotest test_printer_random;
          Qseed.to_alcotest test_raw_subtree_random;
          Qseed.to_alcotest test_parse_never_raw;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "timer" `Quick test_timer;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "json export and reset" `Quick
            test_metrics_json_and_reset;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
        ] );
      ( "hdr",
        [
          Alcotest.test_case "quantiles vs sorted oracle" `Quick
            test_hdr_quantiles_vs_oracle;
          Alcotest.test_case "merge of shards equals whole" `Quick
            test_hdr_merge_of_shards_equals_whole;
        ] );
      ( "events",
        [
          Alcotest.test_case "ndjson round-trip" `Quick test_events_roundtrip;
          Alcotest.test_case "torn final line recovery" `Quick
            test_events_torn_final_line;
          Alcotest.test_case "rotation" `Quick test_events_rotation;
          Alcotest.test_case "torn tail, three users" `Quick
            test_record_log_torn_tail;
          Alcotest.test_case "store and access-log bytes" `Quick
            test_record_log_bytes;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nested spans round-trip" `Quick
            test_trace_nested_spans;
          Alcotest.test_case "disabled is silent" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_trace_ring_overwrites_oldest;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "fleischer bound invariants" `Quick
            test_fleischer_convergence_trace;
          Alcotest.test_case "tracing sink emits events" `Quick
            test_tracing_sink_emits_bounds;
        ] );
      ( "progress",
        [
          Alcotest.test_case "duration formatting" `Quick test_progress_fmt;
          Alcotest.test_case "step lines" `Quick test_progress_counts;
        ] );
    ]
