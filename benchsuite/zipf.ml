(* Zipf (s = 1) request mixes: rank r (1-based) is drawn with weight
   1/r, and a seeded permutation decides which item holds which rank.
   Everything is a function of the seed. *)

module Rng = Tb_prelude.Rng

let mix ~seed ~items ~count =
  if items < 1 then invalid_arg "Zipf.mix: no items";
  let rng = Rng.make seed in
  let item_of_rank = Rng.shuffle rng (Array.init items Fun.id) in
  let cdf = Array.make items 0.0 in
  let total = ref 0.0 in
  for r = 0 to items - 1 do
    total := !total +. (1.0 /. float_of_int (r + 1));
    cdf.(r) <- !total
  done;
  Array.init count (fun _ ->
      let u = Rng.float rng !total in
      (* First rank whose cumulative weight exceeds [u]. *)
      let lo = ref 0 and hi = ref (items - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) > u then hi := mid else lo := mid + 1
      done;
      item_of_rank.(!lo))
