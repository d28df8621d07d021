(* Second eigenvector of the normalized Laplacian (the "Fiedler-like"
   vector used by the eigenvector sweep cut heuristic, after Chung [9]).

   L has spectrum in [0, 2] with known kernel vector D^{1/2} 1. We power-
   iterate M = 2I - L (top eigenvalue 2, same eigenvectors) while
   deflating the kernel direction; the dominant remaining direction is
   the second eigenvector of L. *)

let second_eigenvector ?(iterations = 400) ?(tol = 1e-9) g =
  let n = Graph.num_nodes g in
  if n < 2 then invalid_arg "Spectral.second_eigenvector";
  let lap = Laplacian.create g in
  let kernel = Laplacian.kernel_vector lap in
  (* Deterministic start decorrelated from the kernel. *)
  let x = Array.init n (fun i -> sin (float_of_int (i + 1) *. 1.234567)) in
  let deflate v =
    let c = Tb_prelude.Vec.dot v kernel in
    Tb_prelude.Vec.axpy_in_place v (-.c) kernel
  in
  deflate x;
  Tb_prelude.Vec.normalize_in_place x;
  let y = Array.make n 0.0 in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < iterations do
    incr iter;
    Laplacian.apply lap x y;
    (* y := 2x - Lx *)
    for i = 0 to n - 1 do
      y.(i) <- (2.0 *. x.(i)) -. y.(i)
    done;
    deflate y;
    Tb_prelude.Vec.normalize_in_place y;
    (* Eigenvectors are sign-ambiguous: the distance from x is the
       nearer of y and -y, both max-norms taken in one pass. *)
    let d_pos = ref 0.0 and d_neg = ref 0.0 in
    for i = 0 to n - 1 do
      let a = abs_float (x.(i) -. y.(i)) in
      if a > !d_pos then d_pos := a;
      let b = abs_float (x.(i) -. (-.y.(i))) in
      if b > !d_neg then d_neg := b
    done;
    let delta = min !d_pos !d_neg in
    Array.blit y 0 x 0 n;
    if delta < tol then converged := true
  done;
  x

(* Rayleigh quotient x^T L x / x^T x of the normalized Laplacian:
   approximates lambda_2 when applied to [second_eigenvector]. *)
let rayleigh_quotient g x =
  let lap = Laplacian.create g in
  let y = Array.make (Array.length x) 0.0 in
  Laplacian.apply lap x y;
  Tb_prelude.Vec.dot x y /. Tb_prelude.Vec.dot x x

(* Order nodes by their second-eigenvector coordinate in the node-domain
   (scale back by D^{-1/2}); the sweep cuts are prefixes of this order. *)
let sweep_order g =
  let n = Graph.num_nodes g in
  let x = second_eigenvector g in
  let lap = Laplacian.create g in
  let score =
    Array.init n (fun i ->
        let d = Laplacian.weighted_degree lap i in
        if d > 0.0 then x.(i) /. sqrt d else x.(i))
  in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare score.(a) score.(b)) order;
  order
