(* Dense float-vector kernels for the spectral toolkit and LP solver.
   Plain float arrays keep everything unboxed. *)

let dot a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Vec.dot";
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

let norm2 a = sqrt (dot a a)

let scale_in_place a c =
  for i = 0 to Array.length a - 1 do
    a.(i) <- a.(i) *. c
  done

(* a <- a + c*b *)
let axpy_in_place a c b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Vec.axpy_in_place";
  for i = 0 to n - 1 do
    a.(i) <- a.(i) +. (c *. b.(i))
  done

let normalize_in_place a =
  let n = norm2 a in
  if n > 0.0 then scale_in_place a (1.0 /. n)
