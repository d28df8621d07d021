module Lp = Tb_lp.Lp
module Simplex = Tb_lp.Simplex
module Rng = Tb_prelude.Rng
module Metrics = Tb_obs.Metrics
module Graph = Tb_graph.Graph
module Commodity = Tb_flow.Commodity

let check_float = Alcotest.(check (float 1e-6))

let solve_opt p =
  match Simplex.solve p with
  | Lp.Optimal s -> s
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"

(* ---- Known problems ---- *)

let test_basic_le () =
  (* max 3x + 2y st x + y <= 4, x + 3y <= 6 -> (4, 0), 12. *)
  let p =
    Lp.make ~num_vars:2
      ~objective:[ (0, 3.0); (1, 2.0) ]
      ~rows:
        [
          Lp.row ~coeffs:[ (0, 1.0); (1, 1.0) ] ~op:Lp.Le ~rhs:4.0;
          Lp.row ~coeffs:[ (0, 1.0); (1, 3.0) ] ~op:Lp.Le ~rhs:6.0;
        ]
  in
  let s = solve_opt p in
  check_float "value" 12.0 s.Lp.value;
  check_float "x" 4.0 s.Lp.assignment.(0)

let test_eq_and_ge () =
  (* max x st x >= 2, x + y = 5 -> x = 5. *)
  let p =
    Lp.make ~num_vars:2 ~objective:[ (0, 1.0) ]
      ~rows:
        [
          Lp.row ~coeffs:[ (0, 1.0) ] ~op:Lp.Ge ~rhs:2.0;
          Lp.row ~coeffs:[ (0, 1.0); (1, 1.0) ] ~op:Lp.Eq ~rhs:5.0;
        ]
  in
  check_float "value" 5.0 (solve_opt p).Lp.value

let test_negative_rhs () =
  (* max y st -x - y <= -2 (i.e. x + y >= 2), y <= 3. *)
  let p =
    Lp.make ~num_vars:2 ~objective:[ (1, 1.0) ]
      ~rows:
        [
          Lp.row ~coeffs:[ (0, -1.0); (1, -1.0) ] ~op:Lp.Le ~rhs:(-2.0);
          Lp.row ~coeffs:[ (1, 1.0) ] ~op:Lp.Le ~rhs:3.0;
        ]
  in
  check_float "value" 3.0 (solve_opt p).Lp.value

let test_infeasible () =
  let p =
    Lp.make ~num_vars:1 ~objective:[ (0, 1.0) ]
      ~rows:
        [
          Lp.row ~coeffs:[ (0, 1.0) ] ~op:Lp.Le ~rhs:1.0;
          Lp.row ~coeffs:[ (0, 1.0) ] ~op:Lp.Ge ~rhs:2.0;
        ]
  in
  match Simplex.solve p with
  | Lp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let p =
    Lp.make ~num_vars:1 ~objective:[ (0, 1.0) ]
      ~rows:[ Lp.row ~coeffs:[ (0, -1.0) ] ~op:Lp.Le ~rhs:1.0 ]
  in
  match Simplex.solve p with
  | Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_degenerate () =
  (* Multiple constraints meet at the optimum; Bland fallback must
     terminate. max x + y st x <= 1, y <= 1, x + y <= 2. *)
  let p =
    Lp.make ~num_vars:2
      ~objective:[ (0, 1.0); (1, 1.0) ]
      ~rows:
        [
          Lp.row ~coeffs:[ (0, 1.0) ] ~op:Lp.Le ~rhs:1.0;
          Lp.row ~coeffs:[ (1, 1.0) ] ~op:Lp.Le ~rhs:1.0;
          Lp.row ~coeffs:[ (0, 1.0); (1, 1.0) ] ~op:Lp.Le ~rhs:2.0;
        ]
  in
  check_float "value" 2.0 (solve_opt p).Lp.value

let test_redundant_eq () =
  (* Redundant duplicated equality rows (phase-1 artificials must be
     driven out or left on a zero row). *)
  let p =
    Lp.make ~num_vars:2 ~objective:[ (1, 1.0) ]
      ~rows:
        [
          Lp.row ~coeffs:[ (0, 1.0); (1, 1.0) ] ~op:Lp.Eq ~rhs:3.0;
          Lp.row ~coeffs:[ (0, 1.0); (1, 1.0) ] ~op:Lp.Eq ~rhs:3.0;
        ]
  in
  check_float "value" 3.0 (solve_opt p).Lp.value

let test_zero_objective () =
  let p =
    Lp.make ~num_vars:1 ~objective:[]
      ~rows:[ Lp.row ~coeffs:[ (0, 1.0) ] ~op:Lp.Le ~rhs:1.0 ]
  in
  check_float "value" 0.0 (solve_opt p).Lp.value

(* ---- Pinned bits ----

   Each optimum below is pinned to the bit: the value as a hex float, an
   MD5 digest of the IEEE bits of every assignment entry and of every
   dual, and the pivot counts. A change to the pivot arithmetic that
   moves one bit or one pivot fails here. *)

let bits_digest a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pivot_counters =
  List.map Metrics.counter
    [ "simplex.pivots"; "simplex.phase1_pivots"; "simplex.phase2_pivots" ]

let check_pinned name p ~value ~assignment ~duals ~pivots ~phase1_pivots
    ~phase2_pivots =
  let before = List.map Metrics.count pivot_counters in
  let s = solve_opt p in
  let check what = Alcotest.(check string) (name ^ ": " ^ what) in
  check "value" value (Printf.sprintf "%h" s.Lp.value);
  check "assignment bits" assignment (bits_digest s.Lp.assignment);
  check "dual bits" duals (bits_digest s.Lp.duals);
  Alcotest.(check (list int))
    (name ^ ": pivots, phase-1 and phase-2 pivots")
    [ pivots; phase1_pivots; phase2_pivots ]
    (List.map2 (fun c b -> Metrics.count c - b) pivot_counters before)

(* The exact rung's edge LP, row for row as [Tb_flow.Exact.solve] builds
   it: variable 0 is the throughput, then one flow variable per
   commodity and arc; capacity rows, then one balance row per commodity
   and non-sink node. [Exact.solve] returns only the value and arc
   flows, so the LP is rebuilt here and its value checked against
   [Exact.solve]'s. *)
let edge_lp g commodities =
  let cs = Commodity.normalize commodities in
  let k = Array.length cs in
  let num_arcs = Graph.num_arcs g in
  let f_var j a = 1 + (j * num_arcs) + a in
  let capacity =
    List.init num_arcs (fun a ->
        Lp.row
          ~coeffs:(List.init k (fun j -> (f_var j a, 1.0)))
          ~op:Lp.Le ~rhs:(Graph.arc_cap g a))
  in
  let balance j (c : Commodity.t) v =
    let coeffs = ref [] in
    Graph.iter_succ
      (fun _ arc ->
        coeffs := (f_var j arc, 1.0) :: !coeffs;
        coeffs := (f_var j (Graph.arc_rev arc), -1.0) :: !coeffs)
      g v;
    if v = c.Commodity.src then
      coeffs := (0, -.c.Commodity.demand) :: !coeffs;
    Lp.row ~coeffs:!coeffs ~op:Lp.Eq ~rhs:0.0
  in
  let balances =
    List.concat
      (List.init k (fun j ->
           List.filter_map
             (fun v ->
               if v = cs.(j).Commodity.dst then None
               else Some (balance j cs.(j) v))
             (List.init (Graph.num_nodes g) Fun.id)))
  in
  Lp.make ~num_vars:((k * num_arcs) + 1) ~objective:[ (0, 1.0) ]
    ~rows:(capacity @ balances)

(* A service-zipf pool request: 513 variables and 216 rows, highly
   degenerate (every balance row has rhs 0), so the solve reaches the
   Bland switch. *)
let test_pinned_edge_lp () =
  let req =
    match
      Tb_service.Request.of_line
        {|{"topo":{"spec":"fattree:4"},"tm":{"named":"rm1"},"seed":9,"solver":"auto"}|}
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let topo, tm = Tb_service.Request.build req in
  let g = topo.Tb_topo.Topology.graph in
  let cs = Tb_tm.Tm.commodities tm in
  let p = edge_lp g cs in
  Alcotest.(check int) "variables" 513 p.Lp.num_vars;
  Alcotest.(check string)
    "same LP as the exact rung" "0x1.0000000000003p+0"
    (Printf.sprintf "%h" (fst (Tb_flow.Exact.solve g cs)));
  check_pinned "fattree:4 rm1 seed 9" p ~value:"0x1.0000000000003p+0"
    ~assignment:"a8785c580767622dd47fbbb43440b399"
    ~duals:"61bd88ce580efabb43697084add2ad57" ~pivots:907 ~phase1_pivots:152
    ~phase2_pivots:755

(* Eq and Ge rows with negative rhs flip sign (the Ge row becomes Le);
   phase 1 ends with an artificial basic at level 0, which the one
   pivot outside both phases drives out. *)
let test_pinned_flipped_rows () =
  let p =
    Lp.make ~num_vars:5
      ~objective:[ (0, -2.0); (1, -1.0); (3, -1.0) ]
      ~rows:
        [
          Lp.row
            ~coeffs:[ (0, 1.0); (1, -1.0); (2, 2.0); (3, -1.0); (4, 1.0) ]
            ~op:Lp.Eq ~rhs:(-1.0);
          Lp.row ~coeffs:[ (0, -1.0); (2, 1.0); (3, -1.0) ] ~op:Lp.Ge ~rhs:3.0;
          Lp.row
            ~coeffs:[ (0, -2.0); (1, 1.0); (2, -1.0) ]
            ~op:Lp.Ge ~rhs:(-3.0);
          Lp.row
            ~coeffs:[ (0, 1.0); (1, 1.0); (2, 1.0); (3, 1.0); (4, 1.0) ]
            ~op:Lp.Le ~rhs:10.0;
        ]
  in
  check_pinned "flipped rows" p ~value:"-0x1.cp+2"
    ~assignment:"2ad28e4ba221f7f5ea5490deb40502f6"
    ~duals:"0c91cb1cd6a9cff6874f6d6857b28a1e" ~pivots:5 ~phase1_pivots:2
    ~phase2_pivots:2

(* Beale's LP, which cycles under Dantzig's rule: the degenerate streak
   passes its cap and Bland's rule finishes the solve. *)
let test_pinned_bland () =
  let p =
    Lp.make ~num_vars:4
      ~objective:[ (0, 0.75); (1, -20.0); (2, 0.5); (3, -6.0) ]
      ~rows:
        [
          Lp.row
            ~coeffs:[ (0, 0.25); (1, -8.0); (2, -1.0); (3, 9.0) ]
            ~op:Lp.Le ~rhs:0.0;
          Lp.row
            ~coeffs:[ (0, 0.5); (1, -12.0); (2, -0.5); (3, 3.0) ]
            ~op:Lp.Le ~rhs:0.0;
          Lp.row ~coeffs:[ (2, 1.0) ] ~op:Lp.Le ~rhs:1.0;
        ]
  in
  check_pinned "Beale" p ~value:"0x1.4p+0"
    ~assignment:"fbddf2a8cd3b7715c7607d873040f0de"
    ~duals:"32a8e2a34e500984fc44ca303d4b0041" ~pivots:24 ~phase1_pivots:0
    ~phase2_pivots:24

let test_pinned_bits () =
  test_pinned_edge_lp ();
  test_pinned_flipped_rows ();
  test_pinned_bland ()

(* ---- Properties on random bounded LPs ---- *)

(* Random LP with box-like structure: 0 <= x, sum coefficients positive,
   rhs positive, so 0 is feasible and the region is bounded by a big-box
   row. *)
let random_lp seed =
  let rng = Rng.make seed in
  let n = 1 + Rng.int rng 4 in
  let m = 1 + Rng.int rng 4 in
  let objective = List.init n (fun v -> (v, Rng.float rng 5.0)) in
  let rows =
    List.init m (fun _ ->
        let coeffs = List.init n (fun v -> (v, Rng.float rng 3.0 +. 0.1)) in
        Lp.row ~coeffs ~op:Lp.Le ~rhs:(1.0 +. Rng.float rng 5.0))
  in
  Lp.make ~num_vars:n ~objective ~rows

let prop_solution_feasible =
  QCheck.Test.make ~name:"simplex solutions are feasible" ~count:200
    QCheck.small_int (fun seed ->
      let p = random_lp seed in
      match Simplex.solve p with
      | Lp.Optimal s -> Lp.feasible p s.Lp.assignment
      | Lp.Unbounded | Lp.Infeasible -> false)

let prop_solution_dominates_random_feasible =
  QCheck.Test.make ~name:"optimal dominates random feasible points" ~count:100
    QCheck.small_int (fun seed ->
      let p = random_lp seed in
      match Simplex.solve p with
      | Lp.Optimal s ->
        let rng = Rng.make (seed + 999) in
        let ok = ref true in
        for _ = 1 to 20 do
          (* Random point scaled until feasible. *)
          let x =
            Array.init p.Lp.num_vars (fun _ -> Rng.float rng 1.0)
          in
          let rec shrink k =
            if k = 0 then Array.map (fun _ -> 0.0) x
            else if Lp.feasible p x then x
            else begin
              Array.iteri (fun i v -> x.(i) <- v /. 2.0) x;
              shrink (k - 1)
            end
          in
          let x = shrink 30 in
          if Lp.objective_value p x > s.Lp.value +. 1e-6 then ok := false
        done;
        !ok
      | _ -> false)

(* Strong duality: the duals returned with every optimal solution must
   price the optimum exactly (sum duals * rhs = objective value). *)
let prop_strong_duality =
  QCheck.Test.make ~name:"duals satisfy strong duality" ~count:150
    QCheck.small_int (fun seed ->
      let p = random_lp seed in
      match Simplex.solve p with
      | Lp.Optimal s ->
        let rhs = List.map (fun r -> r.Lp.rhs) p.Lp.rows in
        let dual_value =
          List.fold_left2
            (fun acc y b -> acc +. (y *. b))
            0.0
            (Array.to_list s.Lp.duals)
            rhs
        in
        abs_float (dual_value -. s.Lp.value) < 1e-6
      | _ -> false)

let prop_dual_signs =
  QCheck.Test.make ~name:"Le duals are nonnegative" ~count:100
    QCheck.small_int (fun seed ->
      let p = random_lp seed in
      match Simplex.solve p with
      | Lp.Optimal s -> Array.for_all (fun y -> y >= -1e-7) s.Lp.duals
      | _ -> false)

let () =
  Alcotest.run "lp"
    [
      ( "known",
        [
          Alcotest.test_case "basic le" `Quick test_basic_le;
          Alcotest.test_case "eq and ge" `Quick test_eq_and_ge;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "redundant eq" `Quick test_redundant_eq;
          Alcotest.test_case "zero objective" `Quick test_zero_objective;
          Alcotest.test_case "pinned bits" `Quick test_pinned_bits;
        ] );
      ( "properties",
        [
          Qseed.to_alcotest prop_solution_feasible;
          Qseed.to_alcotest prop_solution_dominates_random_feasible;
          Qseed.to_alcotest prop_strong_duality;
          Qseed.to_alcotest prop_dual_signs;
        ] );
    ]
