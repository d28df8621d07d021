(* Small-sample statistics used when averaging throughput over topology
   instances. The paper reports means with 95% two-sided confidence
   intervals over 10 iterations; we reproduce that with a Student-t
   interval. *)

let mean a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.mean";
  Array.fold_left ( +. ) 0.0 a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a in
    ss /. float_of_int (n - 1)
  end

let stddev a = sqrt (variance a)

let min_max a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.min_max";
  let lo = ref a.(0) and hi = ref a.(0) in
  for i = 1 to n - 1 do
    if a.(i) < !lo then lo := a.(i);
    if a.(i) > !hi then hi := a.(i)
  done;
  (!lo, !hi)

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median";
  let b = Array.copy a in
  Array.sort compare b;
  if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

(* Two-sided 95% Student-t critical values by degrees of freedom; the tail
   entry (large df) is the normal approximation. *)
let t_crit_95 =
  [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
     2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
     2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042 |]

let t_critical ~df =
  if df <= 0 then invalid_arg "Stats.t_critical";
  if df <= Array.length t_crit_95 then t_crit_95.(df - 1) else 1.96

type summary = { mean : float; ci95 : float; n : int }

let summarize a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize";
  let m = mean a in
  let ci =
    if n < 2 then 0.0
    else t_critical ~df:(n - 1) *. stddev a /. sqrt (float_of_int n)
  in
  { mean = m; ci95 = ci; n }
