module Rng = Tb_prelude.Rng
module Stats = Tb_prelude.Stats
module Vec = Tb_prelude.Vec
module Parallel = Tb_prelude.Parallel
module Table = Tb_prelude.Table

let check_float = Alcotest.(check (float 1e-9))

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.make 7 and b = Rng.make 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let base = Rng.make 7 in
  let a = Rng.split base 1 in
  let b = Rng.split base 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.int a 1000 = Rng.int b 1000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 10)

let test_rng_int_range () =
  let rng = Rng.make 3 in
  for _ = 1 to 1000 do
    let x = Rng.int_range rng (-5) 5 in
    Alcotest.(check bool) "in range" true (x >= -5 && x <= 5)
  done

let test_rng_sample_without_replacement () =
  let rng = Rng.make 5 in
  let s = Rng.sample_without_replacement rng ~n:10 ~k:10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "all elements" (Array.init 10 Fun.id) sorted

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      let b = Rng.shuffle (Rng.make seed) a in
      List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b))

(* ---- Stats ---- *)

let test_stats_mean_var () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean a);
  check_float "variance" (32.0 /. 7.0) (Stats.variance a)

let test_stats_median () =
  check_float "odd" 3.0 (Stats.median [| 5.0; 3.0; 1.0 |]);
  check_float "even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_stats_summary_singleton () =
  let s = Stats.summarize [| 42.0 |] in
  check_float "mean" 42.0 s.Stats.mean;
  check_float "ci" 0.0 s.Stats.ci95

let test_stats_ci_contains_mean_often () =
  (* For iid normal-ish samples the 95% CI should cover the truth; use a
     deterministic uniform sample and just check plausibility. *)
  let rng = Rng.make 11 in
  let sample () = Array.init 10 (fun _ -> Rng.float rng 1.0) in
  let hits = ref 0 in
  for _ = 1 to 200 do
    let s = Stats.summarize (sample ()) in
    if abs_float (s.Stats.mean -. 0.5) <= s.Stats.ci95 then incr hits
  done;
  Alcotest.(check bool) "roughly 95% coverage" true (!hits > 170)

let test_t_critical () =
  check_float "df=1" 12.706 (Stats.t_critical ~df:1);
  check_float "df huge" 1.96 (Stats.t_critical ~df:1000)

(* ---- Vec ---- *)

let test_vec_dot_norm () =
  check_float "dot" 32.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |]);
  check_float "norm" 5.0 (Vec.norm2 [| 3.0; 4.0 |])

let test_vec_normalize () =
  let v = [| 3.0; 4.0 |] in
  Vec.normalize_in_place v;
  check_float "unit norm" 1.0 (Vec.norm2 v)

let test_vec_axpy () =
  let a = [| 1.0; 1.0 |] in
  Vec.axpy_in_place a 2.0 [| 1.0; 2.0 |];
  check_float "x" 3.0 a.(0);
  check_float "y" 5.0 a.(1)

(* ---- Parallel ---- *)

let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"parallel map = sequential map" ~count:30
    QCheck.(list small_int)
    (fun l ->
      let a = Array.of_list l in
      let f x = (x * x) + 1 in
      Parallel.map_array f a = Array.map f a)

let test_parallel_empty () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map_array (fun x -> x) [||])

(* A raising element must not strand a domain: the exception surfaces
   only after every spawned domain has finished its chunk. With k
   domains over [0, n), the orchestrator owns the first block of
   [1, n) and the last worker owns the last block. *)
let test_parallel_raise_joins () =
  let probe ~domains ~n ~raise_at =
    Unix.putenv "TOPOBENCH_DOMAINS" (string_of_int domains);
    Fun.protect ~finally:(fun () -> Unix.putenv "TOPOBENCH_DOMAINS" "")
    @@ fun () ->
    let done_ = Atomic.make 0 and last = n - 2 in
    let f i =
      if i = raise_at then failwith (string_of_int i);
      if i >= last then begin
        Unix.sleepf 0.3;
        Atomic.incr done_
      end;
      i
    in
    (match Parallel.force_map_array f (Array.init n (fun i -> i)) with
    | _ -> Alcotest.fail "expected an exception"
    | exception Failure m ->
        Alcotest.(check string) "first exception" (string_of_int raise_at) m);
    Alcotest.(check int) "last worker joined" 2 (Atomic.get done_)
  in
  (* The orchestrator's chunk raises. *)
  probe ~domains:2 ~n:5 ~raise_at:1;
  (* A worker raises; a later worker is still joined. *)
  probe ~domains:3 ~n:7 ~raise_at:3

let test_parallel_domains_override () =
  let with_env v f =
    Unix.putenv "TOPOBENCH_DOMAINS" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "TOPOBENCH_DOMAINS" "") f
  in
  (* 0 and 1 force the sequential path; k > 1 is honored even beyond the
     hardware count; garbage falls back to the hardware default. *)
  with_env "0" (fun () ->
      Alcotest.(check int) "0 -> sequential" 1 (Parallel.domain_count ()));
  with_env "1" (fun () ->
      Alcotest.(check int) "1 -> sequential" 1 (Parallel.domain_count ()));
  with_env "5" (fun () ->
      Alcotest.(check int) "explicit count" 5 (Parallel.domain_count ()));
  with_env "nope" (fun () ->
      Alcotest.(check int) "invalid -> hardware" Parallel.hardware_domains
        (Parallel.domain_count ()));
  (* map_array agrees with sequential map under a forced multi-domain
     split, including sizes smaller than the domain count. *)
  with_env "3" (fun () ->
      let f x = (x * 7) - 3 in
      List.iter
        (fun n ->
          let a = Array.init n (fun i -> i) in
          Alcotest.(check (array int))
            (Printf.sprintf "map_array n=%d" n)
            (Array.map f a) (Parallel.map_array f a))
        [ 0; 1; 2; 3; 10; 100 ])

(* ---- Table ---- *)

let test_table_render () =
  let t = Table.create ~title:"demo" [ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "10"; "200" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 7 = "## demo");
  Alcotest.(check bool) "has row" true
    (String.length s > 0
    && List.exists
         (fun line -> line = "10  200")
         (String.split_on_char '\n' s))

let test_table_arity_mismatch () =
  let t = Table.create ~title:"demo" [ "a"; "b" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let () =
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int_range" `Quick test_rng_int_range;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_rng_sample_without_replacement;
          Qseed.to_alcotest prop_shuffle_is_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/var" `Quick test_stats_mean_var;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "singleton summary" `Quick test_stats_summary_singleton;
          Alcotest.test_case "ci coverage" `Quick test_stats_ci_contains_mean_often;
          Alcotest.test_case "t critical" `Quick test_t_critical;
        ] );
      ( "vec",
        [
          Alcotest.test_case "dot/norm" `Quick test_vec_dot_norm;
          Alcotest.test_case "normalize" `Quick test_vec_normalize;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
        ] );
      ( "parallel",
        [
          Qseed.to_alcotest prop_parallel_matches_sequential;
          Alcotest.test_case "empty" `Quick test_parallel_empty;
          Alcotest.test_case "raise joins every domain" `Quick
            test_parallel_raise_joins;
          Alcotest.test_case "TOPOBENCH_DOMAINS override" `Quick
            test_parallel_domains_override;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity mismatch" `Quick test_table_arity_mismatch;
        ] );
    ]
