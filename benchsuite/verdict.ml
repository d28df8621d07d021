(* The compare rule: a change beats its parent on a metric only when,
   over at least ten run pairs, it wins at least nine tenths of them and
   the medians differ by more than the parent's own quartile spread; it regresses when its
   median is worse than the parent's by more than the metric's bound.
   Where the parent's spread alone exceeds the bound the metric is
   unresolved, unless every run of the change beats every run of the
   parent. *)

type better = Higher | Lower
type verdict = Gain | Same | Unresolved | Regression

let verdict_name = function
  | Gain -> "gain"
  | Same -> "within bound"
  | Unresolved -> "unresolved"
  | Regression -> "REGRESSION"

let better_of_string = function
  | "higher" -> Some Higher
  | "lower" -> Some Lower
  | _ -> None

type judgement = {
  worse_by : float;  (** relative worsening of the median; negative = better *)
  wins : int;
  pairs : int;
  verdict : verdict;
}

let judge ~better ~bound ~base ~next =
  let beats a b = match better with Higher -> a > b | Lower -> a < b in
  let mb = Stats.median base and mn = Stats.median next in
  let q1, _, q3 = Stats.quartiles base in
  let rel x = if mb = 0.0 then if x = 0.0 then 0.0 else infinity else x /. Float.abs mb in
  let worse_by = rel (match better with Higher -> mb -. mn | Lower -> mn -. mb) in
  let pairs = min (Array.length base) (Array.length next) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if beats next.(i) base.(i) then incr wins
  done;
  let all_better =
    Array.for_all (fun n -> Array.for_all (fun b -> beats n b) base) next
  in
  let verdict =
    if worse_by > bound then Regression
    else if
      worse_by < 0.0
      && pairs >= 10
      && 10 * !wins >= 9 * pairs
      && Float.abs (mn -. mb) > q3 -. q1
    then Gain
    else if rel (q3 -. q1) > bound && not all_better then Unresolved
    else Same
  in
  { worse_by; wins = !wins; pairs; verdict }
