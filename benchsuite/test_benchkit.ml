(* Unit tests for the suite's statistics, spans, compare rule and Zipf
   mixes. *)

module Stats = Benchkit.Stats
module Spans = Benchkit.Spans
module Verdict = Benchkit.Verdict
module Zipf = Benchkit.Zipf

let close = Alcotest.float 1e-9

let percentile_rule () =
  Alcotest.(check (option (float 0.0))) "n=9" None (Stats.tail_quantile 9);
  Alcotest.(check (option (float 0.0))) "n=19" None (Stats.tail_quantile 19);
  Alcotest.(check (option (float 0.0))) "n=20" (Some 0.5) (Stats.tail_quantile 20);
  Alcotest.(check (option (float 0.0))) "n=100" (Some 0.9) (Stats.tail_quantile 100);
  Alcotest.(check (option (float 0.0))) "n=999" (Some 0.9) (Stats.tail_quantile 999);
  Alcotest.(check (option (float 0.0))) "n=1000" (Some 0.99) (Stats.tail_quantile 1000);
  Alcotest.(check (option (float 0.0))) "n=10000" (Some 0.999) (Stats.tail_quantile 10000)

let percentiles () =
  let xs = Array.init 101 float_of_int in
  Alcotest.check close "p50" 50.0 (Stats.percentile xs 0.5);
  Alcotest.check close "p90" 90.0 (Stats.percentile xs 0.9);
  Alcotest.check close "p99" 99.0 (Stats.percentile xs 0.99);
  Alcotest.check close "interpolated" 2.5 (Stats.percentile [| 4.0; 1.0 |] 0.5);
  Alcotest.check close "median of one" 7.0 (Stats.median [| 7.0 |])

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let quartiles () =
  let q = Stats.quartiles in
  let check name (a, b, c) (x, y, z) =
    Alcotest.check close (name ^ " q1") a x;
    Alcotest.check close (name ^ " q2") b y;
    Alcotest.check close (name ^ " q3") c z
  in
  check "1..10" (2.75, 5.5, 8.25) (q (Array.init 10 (fun i -> float_of_int (i + 1))));
  check "1..9" (2.5, 5.0, 7.5) (q (Array.init 9 (fun i -> float_of_int (i + 1))));
  check "unsorted pair" (0.75, 1.5, 2.25) (q [| 2.0; 1.0 |]);
  check "three" (1.0, 3.0, 5.0) (q [| 5.0; 1.0; 3.0 |]);
  check "single" (3.0, 3.0, 3.0) (q [| 3.0 |])

let span ~id ~parent ?(probed = [| 0.0 |]) name a b alloc =
  { Spans.id; parent; op = 0; name; start_ns = Int64.of_int a; stop_ns = Int64.of_int b; alloc; probed }

let self_times () =
  (* op [0,100] holds a [10,40] and b [50,90]; b holds c [60,70]. *)
  let spans =
    [
      span ~id:0 ~parent:(-1) "op" 0 100 1000.0;
      span ~id:1 ~parent:0 "a" 10 40 300.0;
      span ~id:2 ~parent:0 ~probed:[| 5.0 |] "b" 50 90 500.0;
      span ~id:3 ~parent:2 ~probed:[| 2.0 |] "c" 60 70 200.0;
      span ~id:4 ~parent:(-1) "op" 200 250 0.0;
      span ~id:5 ~parent:4 "a" 210 250 0.0;
    ]
  in
  let totals = Spans.totals spans in
  let get name = List.assoc name totals in
  Alcotest.check close "op self" 40.0 (get "op").Spans.self_ns;
  Alcotest.check close "a self, two spans" 70.0 (get "a").Spans.self_ns;
  Alcotest.check close "b self" 30.0 (get "b").Spans.self_ns;
  Alcotest.check close "c self" 10.0 (get "c").Spans.self_ns;
  Alcotest.check close "b self alloc" 300.0 (get "b").Spans.self_alloc;
  Alcotest.check close "b probe, children included" 5.0 (get "b").Spans.probed.(0);
  let covered = List.fold_left (fun acc (_, t) -> acc +. t.Spans.self_ns) 0.0 totals in
  Alcotest.check close "self times partition the ops" 150.0 covered

let recorder () =
  let clock = ref 0.0 in
  let t = Spans.create ~probes:[| (fun () -> !clock) |] () in
  Alcotest.(check int) "disabled records nothing" 3 (Spans.record t "x" (fun () -> 3));
  Alcotest.(check int) "no spans" 0 (List.length t.Spans.spans);
  t.Spans.enabled <- true;
  Spans.record t "outer" (fun () ->
      clock := 1.0;
      Spans.record t "inner" (fun () -> clock := 3.0));
  match t.Spans.spans with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer closes last" "outer" outer.Spans.name;
    Alcotest.(check int) "inner's parent" outer.Spans.id inner.Spans.parent;
    Alcotest.check close "outer probe delta" 3.0 outer.Spans.probed.(0);
    Alcotest.check close "inner probe delta" 2.0 inner.Spans.probed.(0)
  | _ -> Alcotest.fail "expected two spans"

let verdicts () =
  let judge ?(better = Verdict.Lower) ?(bound = 0.1) base next =
    (Verdict.judge ~better ~bound ~base ~next).Verdict.verdict
  in
  let base = [| 100.0; 101.0; 99.0; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100.0 |] in
  let v = Alcotest.testable (Fmt.of_to_string Verdict.verdict_name) ( = ) in
  Alcotest.check v "identical" Verdict.Same (judge base base);
  Alcotest.check v "20% slower" Verdict.Regression (judge base (Array.map (( *. ) 1.2) base));
  Alcotest.check v "5% faster, every pair" Verdict.Gain (judge base (Array.map (( *. ) 0.95) base));
  Alcotest.check v "higher is better" Verdict.Regression
    (judge ~better:Verdict.Higher base (Array.map (( *. ) 0.8) base));
  Alcotest.check v "throughput gain" Verdict.Gain
    (judge ~better:Verdict.Higher base (Array.map (( *. ) 1.05) base));
  let noisy = [| 60.0; 140.0; 80.0; 120.0; 100.0; 70.0; 130.0; 90.0; 110.0; 100.0 |] in
  Alcotest.check v "spread wider than the bound" Verdict.Unresolved (judge noisy noisy);
  Alcotest.check v "beats every parent run" Verdict.Gain
    (judge noisy (Array.map (fun x -> x *. 0.1) noisy));
  Alcotest.check v "too few pairs for a gain" Verdict.Same
    (judge (Array.sub base 0 5) (Array.map (( *. ) 0.95) (Array.sub base 0 5)))

let zipf () =
  let mix seed = Zipf.mix ~seed ~items:300 ~count:4000 in
  Alcotest.(check (array int)) "same seed, same mix" (mix 42) (mix 42);
  Alcotest.(check bool) "another seed, another mix" false (mix 42 = mix 43);
  let counts = Array.make 300 0 in
  Array.iter (fun i -> counts.(i) <- counts.(i) + 1) (mix 7);
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  (* Rank 1 carries 1/H(300) ~ 16% of the draws. *)
  Alcotest.(check bool) "head near 16%" true (sorted.(0) > 500 && sorted.(0) < 800);
  Alcotest.(check bool) "all in range" true (Array.for_all (fun i -> i >= 0 && i < 300) (mix 1))

let () =
  Alcotest.run "benchkit"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "percentiles" `Quick percentiles;
          Alcotest.test_case "quartiles" `Quick quartiles;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time with nested spans" `Quick self_times;
          Alcotest.test_case "recorder nesting" `Quick recorder;
        ] );
      ("compare", [ Alcotest.test_case "verdicts on synthetic runs" `Quick verdicts ]);
      ("zipf", [ Alcotest.test_case "mix determinism" `Quick zipf ]);
    ]
