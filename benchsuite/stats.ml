(* Order statistics for the suite report and the compare verdicts. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* Linear interpolation between the two closest ranks. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 0.5

(* First, second and third quartile by the same rule as Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so the
   spreads printed by [suite compare] match the ones computed from the
   printed results by any other tool. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* The highest conventional percentile that has at least ten samples
   beyond it; [None] below twenty samples. *)
let tail_quantile n =
  List.find_opt
    (fun q -> float_of_int n *. (1.0 -. q) >= 10.0 -. 1e-9)
    [ 0.999; 0.99; 0.9; 0.5 ]
