(* Differential validation of the SSSP engine (Tb_graph.Sssp): heap
   Dijkstra, delta-stepping and Dial buckets against the certificate
   checker's Bellman-Ford (Tb_cert.Cert.bellman_ford), which relaxes
   plain arc-order rounds to a fixpoint and shares no code with Sssp.

   The contract under test (see sssp.mli): for a fixed length function,
   distances are the unique fixpoint of the Bellman equations over IEEE
   floats, so every schedule must produce bit-identical distances — we
   compare Int64 float bits, not a tolerance. Parent arcs are
   schedule-dependent, so those are checked for validity (a reached
   node's parent arc must end at it and satisfy
   dist v = dist (src parent) + len parent exactly), not equality. *)

module Graph = Tb_graph.Graph
module Sssp = Tb_graph.Sssp
module Catalog = Tb_topo.Catalog
module Topology = Tb_topo.Topology
module Rng = Tb_prelude.Rng
module A1 = Bigarray.Array1

let bits = Int64.bits_of_float

let with_domains v f =
  Unix.putenv "TOPOBENCH_DOMAINS" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "TOPOBENCH_DOMAINS" "") f

(* ---- Length-function generators. ----

   Deliberately adversarial shapes: unit lengths (Dial's domain),
   quantized random lengths (many exact duplicate path lengths, so
   tie-breaking differs between schedules), zero-length arcs mixed in
   (distance plateaus spanning several delta buckets), and
   infinity-banned arcs (the k-shortest ban mechanism). All are
   deterministic in the arc id, so oracle and subject see the same
   function. *)

let len_unit _ = 1.0
let mix a = (a * 2654435761) land 0xffff

let len_dup a = 0.5 *. float_of_int (1 + (mix a mod 8))

let len_zero a =
  if mix a mod 5 = 0 then 0.0 else 0.25 *. float_of_int (1 + (mix a mod 6))

let len_banned a =
  if mix a mod 7 = 0 then infinity else 1.0 +. float_of_int (mix a mod 4)

let variants =
  [
    ("unit", len_unit); ("dup", len_dup); ("zero", len_zero);
    ("banned", len_banned);
  ]

(* Lengths as the kernels read them: arc [a]'s length at its CSR slot.
   [arc_ba_of_len] is the arc-indexed form [Sssp.run] takes. *)
let ba_of_len g f =
  let num_arcs = Graph.num_arcs g in
  let slot = Graph.ba_arc_slot g in
  let ba = Graph.make_floats num_arcs in
  for a = 0 to num_arcs - 1 do
    A1.set ba (A1.get slot a) (f a)
  done;
  ba

let arc_ba_of_len g f =
  let ba = Graph.make_floats (Graph.num_arcs g) in
  for a = 0 to Graph.num_arcs g - 1 do
    A1.set ba a (f a)
  done;
  ba

let build spec =
  match Catalog.spec_of_string spec with
  | Ok sp -> Catalog.build_spec sp
  | Error m -> failwith m

(* Check one subject run (already in [st]) against the oracle distances
   (infinity where unreachable). *)
let check_against ~what g ~lenf (oracle : float array) (st : Sssp.state) =
  let n = Graph.num_nodes g in
  for v = 0 to n - 1 do
    if oracle.(v) < infinity <> Sssp.reached st v then
      Alcotest.failf "%s: node %d reached mismatch" what v;
    if Sssp.reached st v then begin
      if not (Int64.equal (bits oracle.(v)) (bits (Sssp.distance st v))) then
        Alcotest.failf "%s: node %d distance %.17g vs oracle %.17g" what v
          (Sssp.distance st v) oracle.(v);
      let p = Sssp.parent_arc st v in
      if p <> -1 then begin
        if Graph.arc_dst g p <> v then
          Alcotest.failf "%s: node %d parent arc %d ends at %d" what v p
            (Graph.arc_dst g p);
        let u = Graph.arc_src g p in
        let d = Sssp.distance st u +. lenf p in
        if not (Int64.equal (bits d) (bits (Sssp.distance st v))) then
          Alcotest.failf "%s: node %d parent arc not tight: %.17g vs %.17g"
            what v d (Sssp.distance st v)
      end
    end
  done;
  (* The bulk readers agree with [Sssp.distance]. *)
  let out = Graph.make_floats n in
  Sssp.distances_into st ~targets:(Array.init n Fun.id) out;
  for v = 0 to n - 1 do
    if not (Int64.equal (bits (A1.get out v)) (bits (Sssp.distance st v))) then
      Alcotest.failf "%s: distances_into node %d: %.17g vs %.17g" what v
        (A1.get out v) (Sssp.distance st v)
  done;
  let targets = Array.init n (fun v -> n - 1 - v) in
  let weights = Array.init n (fun i -> float_of_int (1 + (i mod 3))) in
  let expect = ref 0.0 in
  Array.iteri
    (fun i t -> expect := !expect +. (weights.(i) *. Sssp.distance st t))
    targets;
  let got = Sssp.weighted_distance_sum st ~targets ~weights in
  if not (Int64.equal (bits got) (bits !expect)) then
    Alcotest.failf "%s: weighted_distance_sum %.17g vs %.17g" what got !expect

let differential_graph ~tag g =
  let n = Graph.num_nodes g in
  let st = Sssp.create_state n in
  let srcs = List.sort_uniq compare [ 0; n / 2; n - 1 ] in
  List.iter
    (fun (vname, lenf) ->
      let arr = Array.init (Graph.num_arcs g) lenf in
      let ba = ba_of_len g lenf in
      List.iter
        (fun src ->
          let oracle = Tb_cert.Cert.bellman_ford g ~len:arr ~src in
          let subjects =
            [
              ("dijkstra", fun () -> Sssp.dijkstra g ~len:ba ~src st);
              ( "delta", fun () -> Sssp.delta_stepping g ~len:ba ~src st );
              ( "delta-narrow",
                (* A tiny delta forces many buckets and re-bucketed
                   stale entries. *)
                fun () ->
                  Sssp.delta_stepping ~delta:0.125 g ~len:ba ~src st );
            ]
            @ if vname = "unit" then [ ("dial", fun () -> Sssp.dial g ~src st) ]
              else []
          in
          List.iter
            (fun (sname, run) ->
              run ();
              let what =
                Printf.sprintf "%s/%s/%s/src=%d" tag vname sname src
              in
              check_against ~what g ~lenf oracle st)
            subjects)
        srcs)
    variants

let test_differential_catalog () =
  List.iter
    (fun family ->
      match Catalog.small family with
      | [] -> ()
      | topo :: _ ->
        differential_graph
          ~tag:(Catalog.family_name family)
          topo.Topology.graph)
    Catalog.all_families

let test_differential_gen_instances () =
  for seed = 0 to 99 do
    let inst = Tb_check.Gen.instance_of_seed seed in
    differential_graph
      ~tag:(Printf.sprintf "gen#%d" seed)
      inst.Tb_check.Gen.topo.Topology.graph
  done

(* ---- Heap Dijkstra tie order and early exit. ----

   With all-equal lengths nearly every node has several shortest-path
   parents, so the parent arc each node keeps is decided by the heap's
   pop order among equal priorities and by CSR order. The digest covers
   every node's parent arc and distance bits from every source on two
   tie-heavy fabrics; it was recorded with the standalone [Heap] module
   the heap Dijkstra used before its heap moved into [Sssp], so any
   change to the heap's structure or tie-breaking moves it. *)
let tie_digest spec =
  let g = (build spec).Topology.graph in
  let n = Graph.num_nodes g in
  let len = ba_of_len g (fun _ -> 1.0) in
  let st = Sssp.create_state n in
  let b = Buffer.create (n * n * 12) in
  for src = 0 to n - 1 do
    Sssp.dijkstra g ~len ~src st;
    for v = 0 to n - 1 do
      Buffer.add_int32_le b (Int32.of_int (Sssp.parent_arc st v));
      Buffer.add_int64_le b (bits (Sssp.distance st v))
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_dijkstra_tie_order () =
  List.iter
    (fun (spec, pinned) ->
      Alcotest.(check string) (spec ^ " parent arcs and distances") pinned
        (tie_digest spec))
    [
      ("hypercube:4", "f1250312125f270c02766cd614c2b667");
      ("fattree:4", "928bc154cb909ec84548914e26f0698d");
    ]

(* Early exit at a destination set must leave each listed node exactly
   as the full tree does: distance bits, reachability and the whole
   parent path. The set repeats its first node (duplicates count once),
   and a second early-exit run on the same state checks that the
   previous run's destination marks do not leak into the next. *)
let prop_dijkstra_early_exit_exact =
  QCheck.Test.make ~name:"early exit = full tree at every destination" ~count:60
    QCheck.(pair Tb_check.Gen.arbitrary (pair small_nat (list_of_size Gen.(1 -- 6) small_nat)))
    (fun (inst, (pick, picks)) ->
      let g = inst.Tb_check.Gen.topo.Topology.graph in
      let n = Graph.num_nodes g in
      let _, lenf = List.nth variants (pick mod List.length variants) in
      let len = ba_of_len g lenf in
      let src = pick mod n in
      let dsts = Array.of_list (List.map (fun p -> p mod n) (picks @ [ List.hd picks ])) in
      let full = Sssp.create_state n and early = Sssp.create_state n in
      Sssp.dijkstra g ~len ~src full;
      let agrees d =
        Sssp.reached full d = Sssp.reached early d
        && Int64.equal (bits (Sssp.distance full d)) (bits (Sssp.distance early d))
        && Sssp.path_arcs g full d = Sssp.path_arcs g early d
      in
      Sssp.dijkstra ~dsts g ~len ~src early;
      let first = Array.for_all agrees dsts in
      let last = [| dsts.(Array.length dsts - 2) |] in
      Sssp.dijkstra ~dsts:last g ~len ~src early;
      first && agrees last.(0))

let test_dijkstra_dsts_edges () =
  let g = (Tb_topo.Hypercube.make ~dim:3 ()).Topology.graph in
  let len = ba_of_len g len_unit in
  let st = Sssp.create_state 8 in
  (* The source alone: nothing past it is settled or even relaxed. *)
  Sssp.dijkstra ~dsts:[| 5; 5 |] g ~len ~src:5 st;
  Alcotest.(check bool) "neighbour unreached" false (Sssp.reached st 4);
  (* An empty set is the full tree. *)
  Sssp.dijkstra ~dsts:[||] g ~len ~src:0 st;
  Alcotest.(check (float 0.0)) "antipode" 3.0 (Sssp.distance st 7);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Sssp.dijkstra: destination out of range") (fun () ->
      Sssp.dijkstra ~dsts:[| 1; 8 |] g ~len ~src:0 st)

(* ---- Arc-indexed wrapper and state reuse. ---- *)

(* Every node's reachability, distance bits and parent arc. *)
let snapshot n st =
  Array.init n (fun v -> (Sssp.reached st v, bits (Sssp.distance st v), Sssp.parent_arc st v))

(* [Sssp.run] takes arc-indexed lengths and gathers them by slot, so it
   must leave exactly what the kernel it dispatches to leaves on the
   slot-ordered lengths. Small instances go to the heap; fattree:32 has
   exactly [auto_delta_arcs] arcs, so it goes to delta-stepping. *)
let prop_run_is_dijkstra =
  QCheck.Test.make ~name:"run on arc lengths = dijkstra on slot lengths" ~count:60
    QCheck.(pair Tb_check.Gen.arbitrary small_nat)
    (fun (inst, pick) ->
      let g = inst.Tb_check.Gen.topo.Topology.graph in
      let n = Graph.num_nodes g in
      let _, lenf = List.nth variants (pick mod List.length variants) in
      let src = pick mod n in
      let st = Sssp.create_state n in
      Sssp.run g ~len:(arc_ba_of_len g lenf) ~src st;
      let via_run = snapshot n st in
      Sssp.dijkstra g ~len:(ba_of_len g lenf) ~src st;
      via_run = snapshot n st)

let fattree32 = lazy (build "fattree:32").Topology.graph

let prop_run_is_delta_stepping =
  QCheck.Test.make ~name:"run on arc lengths = delta-stepping on slot lengths" ~count:8
    QCheck.small_nat
    (fun pick ->
      let g = Lazy.force fattree32 in
      let n = Graph.num_nodes g in
      let _, lenf = List.nth variants (pick mod List.length variants) in
      let src = (pick * 37) mod n in
      let st = Sssp.create_state n in
      Sssp.run g ~len:(arc_ba_of_len g lenf) ~src st;
      let via_run = snapshot n st in
      Sssp.delta_stepping g ~len:(ba_of_len g lenf) ~src st;
      Graph.num_arcs g >= Sssp.auto_delta_arcs && via_run = snapshot n st)

(* A full tree, then an early-exit tree from another source on the same
   state: the second run must leave every node as a fresh state does,
   and every node it did not reach at [infinity], unreached, with no
   parent. *)
let test_state_reuse () =
  let g = (build "hypercube:6").Topology.graph in
  let n = Graph.num_nodes g in
  let len = ba_of_len g len_dup in
  let check name ~full ~early =
    let st = Sssp.create_state n and fresh = Sssp.create_state n in
    full st;
    early st;
    early fresh;
    if snapshot n st <> snapshot n fresh then
      Alcotest.failf "%s: reused state differs from a fresh one" name;
    let unreached = ref 0 in
    for v = 0 to n - 1 do
      if not (Sssp.reached fresh v) then begin
        incr unreached;
        if Sssp.reached st v || Sssp.distance st v <> infinity || Sssp.parent_arc st v <> -1
        then Alcotest.failf "%s: node %d not reset" name v
      end
    done;
    if !unreached = 0 then Alcotest.failf "%s: the early exit reached every node" name
  in
  check "dijkstra"
    ~full:(fun st -> Sssp.dijkstra g ~len ~src:0 st)
    ~early:(fun st -> Sssp.dijkstra ~dsts:[| 9 |] g ~len ~src:8 st);
  check "delta-stepping"
    ~full:(fun st -> Sssp.delta_stepping g ~len ~src:0 st)
    ~early:(fun st -> Sssp.delta_stepping ~target:9 g ~len ~src:8 st);
  check "dial"
    ~full:(fun st -> Sssp.dial g ~src:0 st)
    ~early:(fun st -> Sssp.dial ~target:9 g ~src:8 st);
  check "heap after delta-stepping"
    ~full:(fun st -> Sssp.delta_stepping g ~len ~src:0 st)
    ~early:(fun st -> Sssp.dijkstra ~dsts:[| 9 |] g ~len ~src:8 st)

(* The one deliberate change of the stamp-free kernels: a node whose
   only relaxations sum to [+inf] (finite lengths whose sum overflows)
   is not reached. It used to be marked reached at distance [+inf]. *)
let test_overflow_not_reached () =
  let g = Graph.of_unit_edges ~n:3 [ (0, 1); (1, 2) ] in
  let lenf _ = max_float in
  let kernels =
    [
      ("dijkstra", fun st -> Sssp.dijkstra g ~len:(ba_of_len g lenf) ~src:0 st);
      ("delta", fun st -> Sssp.delta_stepping g ~len:(ba_of_len g lenf) ~src:0 st);
      ("run", fun st -> Sssp.run g ~len:(arc_ba_of_len g lenf) ~src:0 st);
    ]
  in
  List.iter
    (fun (name, run) ->
      let st = Sssp.create_state 3 in
      run st;
      Alcotest.(check (float 0.0)) (name ^ ": one hop") max_float (Sssp.distance st 1);
      Alcotest.(check bool) (name ^ ": overflowed node unreached") false (Sssp.reached st 2);
      Alcotest.(check int) (name ^ ": no parent") (-1) (Sssp.parent_arc st 2);
      Alcotest.(check bool) (name ^ ": no path") true (Sssp.path_arcs g st 2 = None))
    kernels

(* An out-of-range target is rejected before the run starts, so the
   state still holds the previous tree. *)
let test_target_out_of_range () =
  let g = (Tb_topo.Hypercube.make ~dim:3 ()).Topology.graph in
  let len = ba_of_len g len_unit in
  let st = Sssp.create_state 8 in
  Sssp.dial g ~src:0 st;
  let before = snapshot 8 st in
  List.iter
    (fun t ->
      Alcotest.check_raises "delta-stepping"
        (Invalid_argument "Sssp.delta_stepping: target out of range") (fun () ->
          Sssp.delta_stepping ~target:t g ~len ~src:1 st);
      Alcotest.check_raises "dial" (Invalid_argument "Sssp.dial: target out of range")
        (fun () -> Sssp.dial ~target:t g ~src:1 st))
    [ 8; -1 ];
  Alcotest.(check bool) "previous tree intact" true (before = snapshot 8 st)

(* ---- Domain-count bit-determinism. ----

   Delta-stepping promises bit-identical results — distances AND parent
   arcs — for any TOPOBENCH_DOMAINS setting: its frozen-scan schedule
   never consults the domain count. The hypercube:14 has frontiers of
   thousands of nodes (3432 at hop distance 7 from any source), the
   shape on which a domain-dependent schedule would show. The cases add
   quantized-length ties, a narrow delta, early exit at a target and
   zero-length arcs under a wide delta. *)
let test_delta_domain_determinism () =
  let g = (Tb_topo.Hypercube.make ~dim:14 ()).Topology.graph in
  let n = Graph.num_nodes g in
  let src = 3 in
  let unit = ba_of_len g len_unit and dup = ba_of_len g len_dup in
  let zero = ba_of_len g len_zero in
  (* Seven hops out: the tree exits before draining level 7; level 6
     (3003 nodes) is drained in full. *)
  let target = src lxor 0x7f in
  let cases =
    [
      ("unit", unit, None, None);
      ("unit, target", unit, Some target, None);
      ("dup, narrow delta", dup, None, Some 0.05);
      ("dup, target", dup, Some target, None);
      ("zero-length arcs, wide delta", zero, None, Some 1.5);
    ]
  in
  let st = Sssp.create_state n in
  List.iter
    (fun (name, len, target, delta) ->
      let capture domains =
        with_domains domains (fun () ->
            Sssp.delta_stepping ?target ?delta g ~len ~src st;
            Array.init n (fun v ->
                (Sssp.reached st v, bits (Sssp.distance st v), Sssp.parent_arc st v)))
      in
      let base = capture "1" in
      List.iter
        (fun domains ->
          if capture domains <> base then
            Alcotest.failf "%s: domains=%s differs from domains=1" name domains)
        [ "0"; "2"; "5" ])
    cases

(* ---- Fleischer workhorse cross-check. ----

   Forcing the two workhorses on the same instance must produce valid
   certified brackets from both (trajectories may differ — tie-broken
   trees differ — so the brackets need not be equal, but both must
   certify and overlap). *)
let test_fleischer_workhorse_agreement () =
  let rng = Rng.make 5 in
  let g = Tb_graph.Equipment.random_regular rng ~n:48 ~degree:6 in
  let cs =
    Array.init 24 (fun i ->
        Tb_flow.Commodity.make ~src:i ~dst:((i + 17) mod 48) ~demand:1.0)
  in
  let check name (r : Tb_flow.Fleischer.result) =
    (match
       Tb_cert.Cert.primal_feasible g cs ~throughput:r.lower ~flow:r.flow
     with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: primal: %s" name m);
    (match
       Tb_cert.Cert.dual_bound_valid g cs ~lengths:r.lengths ~upper:r.upper
     with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: dual: %s" name m);
    Alcotest.(check bool) (name ^ " bracket ordered") true (r.lower <= r.upper)
  in
  let rh = Tb_flow.Fleischer.solve ~tol:0.05 ~sssp:Heap_dijkstra g cs in
  let rd = Tb_flow.Fleischer.solve ~tol:0.05 ~sssp:Delta_stepping g cs in
  check "heap" rh;
  check "delta" rd;
  (* Both brackets contain the true optimum, so they must intersect. *)
  Alcotest.(check bool) "brackets overlap" true
    (rh.lower <= rd.upper && rd.lower <= rh.upper)

let test_fleischer_delta_domain_determinism () =
  let rng = Rng.make 31 in
  let g = Tb_graph.Equipment.random_regular rng ~n:40 ~degree:5 in
  let cs =
    Array.init 20 (fun i ->
        Tb_flow.Commodity.make ~src:i ~dst:((i + 13) mod 40) ~demand:1.0)
  in
  let solve domains =
    with_domains domains (fun () ->
        Tb_flow.Fleischer.solve ~tol:0.05 ~sssp:Delta_stepping g cs)
  in
  let r1 = solve "1" in
  let r4 = solve "4" in
  Alcotest.(check int) "same phases" r1.Tb_flow.Fleischer.phases
    r4.Tb_flow.Fleischer.phases;
  Alcotest.(check bool) "lower bit-identical" true
    (Int64.equal
       (bits r1.Tb_flow.Fleischer.lower)
       (bits r4.Tb_flow.Fleischer.lower));
  Alcotest.(check bool) "upper bit-identical" true
    (Int64.equal
       (bits r1.Tb_flow.Fleischer.upper)
       (bits r4.Tb_flow.Fleischer.upper));
  Alcotest.(check bool) "flows bit-identical" true
    (Array.for_all2
       (fun a b -> Int64.equal (bits a) (bits b))
       r1.Tb_flow.Fleischer.flow r4.Tb_flow.Fleischer.flow)

(* ---- Pinned delta-stepping Fleischer trajectory. ----

   One solve on an instance with both single-destination source groups
   (early-exit trees) and multi-destination ones (full trees), with its
   bracket and phase count pinned bit for bit. The fused frozen scan,
   the incrementally tracked congestion and maximum length, and the
   early-exit dual trees are all exact rewrites: a different parent arc,
   length or dual tree distance anywhere moves at least one of these
   values. *)
let test_fleischer_delta_trajectory () =
  let g = Tb_graph.Equipment.random_regular (Rng.make 31) ~n:40 ~degree:5 in
  let cm src dst demand = Tb_flow.Commodity.make ~src ~dst ~demand in
  let cs =
    Array.append
      (Array.init 6 (fun i ->
           cm i ((i + 13) mod 40) (1.0 +. (0.5 *. float_of_int i))))
      [| cm 10 20 1.0; cm 10 25 2.0; cm 10 33 0.5; cm 11 21 1.5; cm 11 30 1.0 |]
  in
  let r = Tb_flow.Fleischer.solve ~tol:0.05 ~sssp:Delta_stepping g cs in
  let check_bits name pinned got =
    if not (Int64.equal (bits got) pinned) then
      Alcotest.failf "%s: got %h (0x%Lx), pinned 0x%Lx" name got (bits got)
        pinned
  in
  check_bits "lower" 0x3ff2e2f8151d07ebL r.lower;
  check_bits "upper" 0x3ff3d2f753b96e7eL r.upper;
  Alcotest.(check int) "phases" 700 r.phases

(* ---- Allocation regression. ----

   The SSSP and Fleischer inner loops allocate nothing per relaxation,
   push or routed path: no float crosses a module boundary or enters an
   out-of-line closure, where it would be boxed (the dev profile
   compiles with -opaque and without flambda, so nothing is inlined
   across modules). Minor-heap words are deterministic, so the ceilings
   are hard: each sits about 4x above the measured steady state (4,400
   words for the delta-stepping trees, which is their per-call closures;
   0 for the heap trees; 26,000 for the Fleischer solve; 5,300 for the
   370-phase Restricted solve), and one boxed float per relaxation
   overshoots it 20x or more (per routed path, 4x or more, for
   Restricted). The cut-bound edge sums ([Cut.capacity],
   [Laplacian.apply]) get a flat 1,000-word ceiling for 100 calls on
   fattree:8: they measure 200 and 0 words, against 27,400 and 1,200
   when they built a record and boxed the running sum per edge. Scratch
   buffers grow on the first runs, so every measurement follows a
   warm-up pass; domains are pinned to 1 so the count does not depend on
   the machine. *)

let minor_words_after_warmup f =
  with_domains "1" (fun () ->
      f ();
      let w0 = Gc.minor_words () in
      f ();
      Gc.minor_words () -. w0)

let check_ceiling what ~ceiling words =
  if words > ceiling then
    Alcotest.failf "%s: %.0f minor words allocated, ceiling %.0f" what words
      ceiling

let test_alloc_delta_stepping () =
  let g = (build "fattree:16").Topology.graph in
  let ba = ba_of_len g len_dup in
  let n = Graph.num_nodes g in
  let st = Sssp.create_state n in
  let words =
    minor_words_after_warmup (fun () ->
        for i = 0 to 99 do
          Sssp.delta_stepping g ~len:ba ~src:(i * 7 mod n) st
        done)
  in
  check_ceiling "100 delta-stepping trees on fattree:16" ~ceiling:18_000.0 words

let test_alloc_dijkstra () =
  let g = (build "hypercube:6").Topology.graph in
  let ba = ba_of_len g len_dup in
  let n = Graph.num_nodes g in
  let st = Sssp.create_state n in
  (* Early-exit trees take a prebuilt option, as Fleischer passes. *)
  let dsts = Some [| 3; 40; 63; 3 |] in
  let words =
    minor_words_after_warmup (fun () ->
        for i = 0 to 99 do
          Sssp.dijkstra g ~len:ba ~src:(i mod n) st;
          Sssp.dijkstra ?dsts g ~len:ba ~src:(i mod n) st
        done)
  in
  check_ceiling "200 heap Dijkstra trees on hypercube:6" ~ceiling:400.0 words

let test_alloc_fleischer () =
  let topo = build "fattree:8" in
  let cs = Tb_tm.Tm.commodities (Tb_tm.Synthetic.all_to_all topo) in
  let words =
    minor_words_after_warmup (fun () ->
        ignore (Tb_flow.Fleischer.solve ~eps:0.4 ~tol:0.06 topo.Topology.graph cs))
  in
  check_ceiling "Fleischer.solve on fattree:8 A2A" ~ceiling:100_000.0 words

let test_alloc_restricted () =
  let topo = build "fattree:8" in
  let g = topo.Topology.graph in
  let cs = Tb_tm.Tm.commodities (Tb_tm.Synthetic.longest_matching topo) in
  (* The path sets are enumerated up front, so the count is the solve's
     own. *)
  let n = Graph.num_nodes g in
  let table = Array.make_matrix n n [||] in
  Array.iter
    (fun (c : Tb_flow.Commodity.t) ->
      let u = c.Tb_flow.Commodity.src and v = c.Tb_flow.Commodity.dst in
      table.(u).(v) <- Topobench.Llskr.diverse_paths g ~src:u ~dst:v ~k:4)
    cs;
  let paths u v = table.(u).(v) in
  let words =
    minor_words_after_warmup (fun () -> ignore (Tb_flow.Restricted.solve g ~paths cs))
  in
  check_ceiling "Restricted.solve on fattree:8 LM, k = 4" ~ceiling:21_000.0 words

let test_alloc_cut_capacity () =
  let g = (build "fattree:8").Topology.graph in
  let n = Graph.num_nodes g in
  let cut = Array.init n (fun v -> 2 * v < n) in
  let words =
    minor_words_after_warmup (fun () ->
        for _ = 1 to 100 do
          ignore (Sys.opaque_identity (Tb_cuts.Cut.capacity g cut))
        done)
  in
  check_ceiling "100 Cut.capacity calls on fattree:8" ~ceiling:1_000.0 words

(* The whole estimator suite evaluates ~12,500 cuts of 4,032 flows each
   through one prepared kernel: it measures about 32,000 minor words
   (nearly all of them the eigenvector solve), against 168 M when every
   cut folded its flows with a tuple accumulator. One boxed float per
   cut would add 37,000 words; one per flow, 100 M. *)
let test_alloc_cut_estimators () =
  let topo = build "hypercube:6" in
  let flows = Tb_tm.Tm.flows (Tb_tm.Synthetic.all_to_all topo) in
  let words =
    minor_words_after_warmup (fun () ->
        ignore (Tb_cuts.Estimator.run topo.Topology.graph flows))
  in
  check_ceiling "Estimator.run on hypercube:6 A2A" ~ceiling:250_000.0 words

(* The eigenvector estimator's power iteration: about 2,000 minor words
   (boxed floats of the cross-module [Vec] calls), against 29,600 when
   each iteration negated y into a fresh array. *)
let test_alloc_second_eigenvector () =
  let g = (build "hypercube:6").Topology.graph in
  let words =
    minor_words_after_warmup (fun () ->
        ignore (Sys.opaque_identity (Tb_graph.Spectral.second_eigenvector g)))
  in
  check_ceiling "second_eigenvector on hypercube:6" ~ceiling:5_000.0 words

let test_alloc_laplacian_apply () =
  let g = (build "fattree:8").Topology.graph in
  let n = Graph.num_nodes g in
  let lap = Tb_graph.Laplacian.create g in
  let x = Array.init n (fun v -> float_of_int (v mod 7) -. 3.0) in
  let y = Array.make n 0.0 in
  let words =
    minor_words_after_warmup (fun () ->
        for _ = 1 to 100 do
          Tb_graph.Laplacian.apply lap x y
        done)
  in
  check_ceiling "100 Laplacian.apply calls on fattree:8" ~ceiling:1_000.0 words

(* ---- Graph.Builder equivalence. ---- *)

let test_builder_matches_of_edges () =
  let rng = Rng.make 77 in
  let n = 40 in
  let edges = ref [] in
  let b = Graph.Builder.create ~n () in
  for _ = 1 to 120 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (List.exists (fun (x, y, _) ->
        (min u v, max u v) = (min x y, max x y)) !edges)
    then begin
      let c = 0.5 +. Rng.float rng 2.0 in
      edges := (u, v, c) :: !edges;
      Graph.Builder.add b u v c
    end
  done;
  let via_builder = Graph.Builder.finish ~reverse:true b in
  (* of_edges prepend-era callers built the list newest-first, so the
     [~reverse:true] builder order equals the reversed insertion list. *)
  let via_of_edges = Graph.of_edges ~n !edges in
  Alcotest.(check int) "num_edges" (Graph.num_edges via_of_edges)
    (Graph.num_edges via_builder);
  for e = 0 to Graph.num_edges via_builder - 1 do
    let e1 = Graph.edge via_of_edges e in
    let e2 = Graph.edge via_builder e in
    if
      (e1.Graph.u, e1.Graph.v) <> (e2.Graph.u, e2.Graph.v)
      || not (Int64.equal (bits e1.Graph.cap) (bits e2.Graph.cap))
    then
      Alcotest.failf "edge %d mismatch: (%d,%d,%g) vs (%d,%d,%g)" e e1.Graph.u
        e1.Graph.v e1.Graph.cap e2.Graph.u e2.Graph.v e2.Graph.cap
  done;
  (* Same CSR adjacency. *)
  let n1 = Graph.num_nodes via_of_edges in
  for v = 0 to n1 - 1 do
    let s1 = ref [] and s2 = ref [] in
    Graph.iter_succ (fun w a -> s1 := (w, a) :: !s1) via_of_edges v;
    Graph.iter_succ (fun w a -> s2 := (w, a) :: !s2) via_builder v;
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "succ of %d" v)
      !s1 !s2
  done

let test_builder_validates () =
  let b = Graph.Builder.create ~n:4 () in
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Graph.Builder.add: self-loop") (fun () ->
      Graph.Builder.add b 2 2 1.0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.Builder.add: node out of range") (fun () ->
      Graph.Builder.add b 0 7 1.0);
  Alcotest.check_raises "non-positive capacity"
    (Invalid_argument "Graph.Builder.add: non-positive capacity") (fun () ->
      Graph.Builder.add b 0 1 0.0)

(* ---- Catalog validation and estimates. ---- *)

let test_spec_validation () =
  let ok s =
    match Catalog.spec_of_string s with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "%s should parse: %s" s m
  in
  let err s =
    match Catalog.spec_of_string s with
    | Ok _ -> Alcotest.failf "%s should be rejected" s
    | Error _ -> ()
  in
  ok "fattree:284";
  ok "slimfly:13";
  ok "hypercube:12";
  ok "dragonfly:30";
  ok "xpander:6000,deg=16";
  err "fattree:3";
  err "fattree:0";
  err "slimfly:6";
  err "slimfly:7";
  err "hypercube:0";
  err "hypercube:25";
  err "longhop:13";
  err "jellyfish:5,deg=5";
  err "jellyfish:7,deg=3";
  err "xpander:10,deg=1";
  (* build_spec turns the same rejection into Failure, not a deep
     generator Invalid_argument. *)
  (match Catalog.spec_of_string "fattree:4" with
  | Error m -> Alcotest.failf "fattree:4: %s" m
  | Ok sp ->
    (try
       ignore (Catalog.build_spec { sp with size = Some 3 });
       Alcotest.fail "build_spec fattree:3 should fail"
     with Failure m ->
       Alcotest.(check bool) "typed message" true
         (String.length m > 0 && m.[0] = 'f' (* "fattree: ..." *))))

let test_estimates_match_built () =
  List.iter
    (fun s ->
      match Catalog.spec_of_string s with
      | Error m -> Alcotest.failf "%s: %s" s m
      | Ok sp ->
        (match Catalog.estimate sp with
        | None -> Alcotest.failf "%s: expected an estimate" s
        | Some e ->
          let topo = Catalog.build_spec sp in
          let g = topo.Topology.graph in
          Alcotest.(check int) (s ^ " nodes") (Graph.num_nodes g)
            e.Catalog.nodes;
          Alcotest.(check int) (s ^ " edges") (Graph.num_edges g)
            e.Catalog.edges;
          (* The flat estimate is every Bigarray column of the graph. *)
          let ints = [ Graph.ba_edge_u g; Graph.ba_edge_v g; Graph.ba_adj_start g;
                       Graph.ba_adj_node g; Graph.ba_adj_arc g; Graph.ba_arc_slot g ] in
          let floats = [ Graph.ba_edge_cap g; Graph.ba_arc_caps g ] in
          let bytes =
            8 * (List.fold_left (fun acc a -> acc + A1.dim a) 0 ints
                 + List.fold_left (fun acc a -> acc + A1.dim a) 0 floats)
          in
          Alcotest.(check int) (s ^ " flat bytes") bytes e.Catalog.flat_bytes))
    [ "fattree:4"; "fattree:8"; "dragonfly:2"; "hypercube:5"; "slimfly:5";
      "xpander:8,deg=4,seed=3"; "jellyfish:16,deg=6" ]

let test_scale_specs_validate () =
  List.iter
    (fun (name, s) ->
      match Catalog.spec_of_string s with
      | Error m -> Alcotest.failf "scale spec %s (%s): %s" name s m
      | Ok sp ->
        (match Catalog.estimate sp with
        | None -> Alcotest.failf "scale spec %s: no estimate" name
        | Some e ->
          Alcotest.(check bool)
            (name ^ " is 100k-class")
            true
            (e.Catalog.nodes >= 100_000)))
    Catalog.scale_specs

let () =
  Alcotest.run "sssp"
    [
      ( "differential",
        [
          Alcotest.test_case "catalog families vs Bellman-Ford" `Quick
            test_differential_catalog;
          Alcotest.test_case "fuzz instances vs Bellman-Ford" `Quick
            test_differential_gen_instances;
          Alcotest.test_case "delta-stepping domain determinism" `Quick
            test_delta_domain_determinism;
        ] );
      ( "heap dijkstra",
        [
          Alcotest.test_case "tie order pinned" `Quick test_dijkstra_tie_order;
          Qseed.to_alcotest prop_dijkstra_early_exit_exact;
          Alcotest.test_case "destination set edges" `Quick
            test_dijkstra_dsts_edges;
        ] );
      ( "state",
        [
          Qseed.to_alcotest prop_run_is_dijkstra;
          Qseed.to_alcotest prop_run_is_delta_stepping;
          Alcotest.test_case "reuse resets unreached nodes" `Quick test_state_reuse;
          Alcotest.test_case "overflowed sum leaves a node unreached" `Quick
            test_overflow_not_reached;
          Alcotest.test_case "target out of range" `Quick test_target_out_of_range;
        ] );
      ( "fleischer",
        [
          Alcotest.test_case "workhorse cross-certification" `Quick
            test_fleischer_workhorse_agreement;
          Alcotest.test_case "delta workhorse domain determinism" `Quick
            test_fleischer_delta_domain_determinism;
          Alcotest.test_case "delta workhorse pinned trajectory" `Quick
            test_fleischer_delta_trajectory;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "delta-stepping trees" `Quick
            test_alloc_delta_stepping;
          Alcotest.test_case "heap Dijkstra trees" `Quick test_alloc_dijkstra;
          Alcotest.test_case "Fleischer solve" `Quick test_alloc_fleischer;
          Alcotest.test_case "Restricted solve" `Quick test_alloc_restricted;
          Alcotest.test_case "cut capacity" `Quick test_alloc_cut_capacity;
          Alcotest.test_case "cut estimator suite" `Quick
            test_alloc_cut_estimators;
          Alcotest.test_case "Laplacian apply" `Quick test_alloc_laplacian_apply;
          Alcotest.test_case "second eigenvector" `Quick
            test_alloc_second_eigenvector;
        ] );
      ( "builder",
        [
          Alcotest.test_case "matches of_edges" `Quick
            test_builder_matches_of_edges;
          Alcotest.test_case "validates input" `Quick test_builder_validates;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
          Alcotest.test_case "estimates match built graphs" `Quick
            test_estimates_match_built;
          Alcotest.test_case "scale roster validates" `Quick
            test_scale_specs_validate;
        ] );
    ]
