(* Linear program model: maximize c.x subject to row constraints and
   x >= 0. Rows are built sparsely and densified by the solver; problem
   sizes here are the "exact validation" regime (the large-scale path is
   the combinatorial FPTAS in tb_flow). *)

type op = Le | Ge | Eq

type row = {
  coeffs : (int * float) list; (* (variable, coefficient), vars unique *)
  op : op;
  rhs : float;
}

type problem = {
  num_vars : int;
  (* Maximization objective; variables not listed default to 0. *)
  objective : (int * float) list;
  rows : row list;
}

type solution = {
  value : float;
  assignment : float array;
  (* Dual value per constraint row, in input order, for the maximization
     problem (Le rows have nonnegative duals, Ge nonpositive, Eq free).
     Strong duality: sum_i duals.(i) * rhs_i = value. *)
  duals : float array;
}

type outcome = Optimal of solution | Unbounded | Infeasible

let make ~num_vars ~objective ~rows =
  let check_var v =
    if v < 0 || v >= num_vars then invalid_arg "Lp.make: variable out of range"
  in
  List.iter (fun (v, _) -> check_var v) objective;
  List.iter (fun r -> List.iter (fun (v, _) -> check_var v) r.coeffs) rows;
  { num_vars; objective; rows }

let row ~coeffs ~op ~rhs = { coeffs; op; rhs }

(* Check a candidate assignment against all constraints within [tol];
   used by the property tests. *)
let feasible ?(tol = 1e-6) p x =
  Array.length x = p.num_vars
  && Array.for_all (fun v -> v >= -.tol) x
  && List.for_all
       (fun r ->
         let lhs =
           List.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0.0 r.coeffs
         in
         match r.op with
         | Le -> lhs <= r.rhs +. tol
         | Ge -> lhs >= r.rhs -. tol
         | Eq -> abs_float (lhs -. r.rhs) <= tol)
       p.rows

let objective_value p x =
  List.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0.0 p.objective
