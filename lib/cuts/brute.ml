module Graph = Tb_graph.Graph

(* Brute-force cut enumeration. Full enumeration is 2^(n-1) - 1 proper
   cuts (fixing one node's side kills the complement symmetry); like the
   paper we cap the number of inspected cuts (10,000 by default) so the
   estimator also runs as a "limited brute force" pass on larger
   networks. *)

let default_cap = 10_000

(* Iterate cuts as bitmasks over nodes [0, n-1) — node n-1 stays outside,
   covering each complementary pair once: node v is inside for mask m iff
   bit v of m is set, for m = 1, 2, ... until the cap is reached. Calls
   [f cut] per mask. *)
let iter ?(max_cuts = default_cap) g f =
  let n = Graph.num_nodes g in
  if n < 2 then invalid_arg "Brute.iter";
  (* For networks beyond 62 nodes the full space cannot be indexed in an
     int, but the capped prefix still can: masks up to [max_cuts] set
     only their low bits, so the cuts are subsets of the low-numbered
     nodes — precisely the paper's "limited brute force on all
     networks". *)
  let count =
    if n - 1 >= 62 then max_cuts else min ((1 lsl (n - 1)) - 1) max_cuts
  in
  let cut = Array.make n false in
  for _ = 1 to count do
    (* Step the mask to mask + 1 in place: clear its trailing ones and
       set the zero above them. The mask stays below 2^(n-1), so node
       n-1 is never reached. *)
    let v = ref 0 in
    while cut.(!v) do
      cut.(!v) <- false;
      incr v
    done;
    cut.(!v) <- true;
    f cut
  done

(* Best (minimum) sparsity among enumerated cuts. *)
let sparsest ?max_cuts p = Cut.sparsest p (iter ?max_cuts (Cut.graph p))

(* Whether the instance is small enough for the cap to mean exhaustive
   enumeration. *)
let exhaustive g ~max_cuts =
  let n = Graph.num_nodes g in
  n - 1 < 62 && (1 lsl (n - 1)) - 1 <= max_cuts
