module Graph = Tb_graph.Graph
module Spectral = Tb_graph.Spectral
module Rng = Tb_prelude.Rng

(* Bisection bandwidth: the minimum capacity over cuts splitting the
   nodes into two equal halves (n even; for odd n the halves differ by
   one). Exact for small n via enumeration; otherwise the best of
   (a) the spectral order's balanced point and (b) Kernighan-Lin local
   search from random balanced seeds. *)

let capacity_of_balanced g cut = Cut.capacity g cut

(* Exhaustive over balanced cuts; n <= ~22 is practical. *)
let exact g =
  let n = Graph.num_nodes g in
  if n < 2 then invalid_arg "Bisection.exact";
  if n > 24 then invalid_arg "Bisection.exact: too large";
  let half = n / 2 in
  let best = ref infinity and best_cut = ref None in
  let cut = Array.make n false in
  (* Enumerate subsets of size [half] containing node 0 (kills the
     complement symmetry when n is even; for odd n both sizes are
     covered by the complement anyway). *)
  let rec go v chosen =
    if chosen = half then begin
      let c = capacity_of_balanced g cut in
      if c < !best then begin
        best := c;
        best_cut := Some (Array.copy cut)
      end
    end
    else if v < n && n - v >= half - chosen then begin
      cut.(v) <- true;
      go (v + 1) (chosen + 1);
      cut.(v) <- false;
      go (v + 1) chosen
    end
  in
  cut.(0) <- true;
  go 1 1;
  (!best, !best_cut)

(* One Kernighan-Lin refinement pass: greedily swap the pair with the
   best gain, lock both, repeat; keep the best prefix of the swap
   sequence. Returns the improved cut and whether it improved. *)
let kl_pass g cut =
  let n = Graph.num_nodes g in
  let cur = Array.copy cut in
  let m = Graph.num_edges g in
  let eu = Graph.ba_edge_u g and ev = Graph.ba_edge_v g in
  let ecap = Graph.ba_edge_cap g in
  (* d.(v) = external cost - internal cost of v under [cur], summed over
     the edge columns in edge-id order (no record per edge). *)
  let d = Array.make n 0.0 in
  let recompute_d () =
    Array.fill d 0 n 0.0;
    for e = 0 to m - 1 do
      let u = eu.{e} and v = ev.{e} and c = ecap.{e} in
      if cur.(u) <> cur.(v) then begin
        d.(u) <- d.(u) +. c;
        d.(v) <- d.(v) +. c
      end
      else begin
        d.(u) <- d.(u) -. c;
        d.(v) <- d.(v) -. c
      end
    done
  in
  let locked = Array.make n false in
  (* Keyed (smaller id, larger id): the columns are normalized that way. *)
  let edge_cap = Hashtbl.create m in
  for e = 0 to m - 1 do
    Hashtbl.replace edge_cap (eu.{e}, ev.{e}) ecap.{e}
  done;
  let cap_between u v =
    Option.value ~default:0.0
      (Hashtbl.find_opt edge_cap (min u v, max u v))
  in
  let swaps = ref [] in
  let gain_sum = ref 0.0 in
  let best_prefix_gain = ref 0.0 and best_prefix_len = ref 0 in
  let steps = Graph.num_nodes g / 2 in
  recompute_d ();
  (try
     for step = 1 to steps do
       (* Best unlocked cross pair. *)
       let best_gain = ref neg_infinity and best_pair = ref None in
       for u = 0 to n - 1 do
         if (not locked.(u)) && cur.(u) then
           for v = 0 to n - 1 do
             if (not locked.(v)) && not cur.(v) then begin
               let gain = d.(u) +. d.(v) -. (2.0 *. cap_between u v) in
               if gain > !best_gain then begin
                 best_gain := gain;
                 best_pair := Some (u, v)
               end
             end
           done
       done;
       match !best_pair with
       | None -> raise Exit
       | Some (u, v) ->
         locked.(u) <- true;
         locked.(v) <- true;
         cur.(u) <- false;
         cur.(v) <- true;
         recompute_d ();
         swaps := (u, v) :: !swaps;
         gain_sum := !gain_sum +. !best_gain;
         if !gain_sum > !best_prefix_gain then begin
           best_prefix_gain := !gain_sum;
           best_prefix_len := step
         end
     done
   with Exit -> ());
  if !best_prefix_gain <= 1e-12 then (Array.copy cut, false)
  else begin
    (* Rebuild: apply only the best prefix of swaps. *)
    let out = Array.copy cut in
    let seq = List.rev !swaps in
    List.iteri
      (fun i (u, v) ->
        if i < !best_prefix_len then begin
          out.(u) <- false;
          out.(v) <- true
        end)
      seq;
    (out, true)
  end

let kl_refine g cut =
  let rec go cut rounds =
    if rounds = 0 then cut
    else begin
      let cut', improved = kl_pass g cut in
      if improved then go cut' (rounds - 1) else cut'
    end
  in
  go cut 16

(* Balanced cut from the spectral sweep order. *)
let spectral_balanced g =
  let n = Graph.num_nodes g in
  let order = Spectral.sweep_order g in
  let cut = Array.make n false in
  for i = 0 to (n / 2) - 1 do
    cut.(order.(i)) <- true
  done;
  cut

let random_balanced rng n =
  let idx = Rng.sample_without_replacement rng ~n ~k:(n / 2) in
  let cut = Array.make n false in
  Array.iter (fun v -> cut.(v) <- true) idx;
  cut

(* Bisection bandwidth estimate: exact when affordable, otherwise
   best-of spectral + KL from a few random restarts. *)
let bandwidth ?(rng = Rng.default ()) ?(restarts = 4) g =
  let n = Graph.num_nodes g in
  if n <= 20 then fst (exact g)
  else begin
    let candidates =
      spectral_balanced g
      :: List.init restarts (fun i ->
             random_balanced (Rng.split rng i) n)
    in
    List.fold_left
      (fun acc cut ->
        let refined = kl_refine g cut in
        min acc (Cut.capacity g refined))
      infinity candidates
  end

(* The paper-style normalized form: bisection capacity as a throughput
   bound for a TM, i.e. capacity over the larger directional demand
   crossing the best bisection. We report the bound of the best
   *capacity* bisection, which is how bisection bandwidth gets (mis)used
   as a proxy. *)
let as_throughput_bound ?rng ?restarts g flows =
  let n = Graph.num_nodes g in
  let cut =
    if n <= 20 then
      match exact g with
      | _, Some c -> c
      | _, None -> invalid_arg "Bisection.as_throughput_bound"
    else begin
      let candidates =
        spectral_balanced g
        :: List.init
             (Option.value ~default:4 restarts)
             (fun i ->
               random_balanced
                 (Rng.split (Option.value ~default:(Rng.default ()) rng) i)
                 n)
      in
      let best =
        List.fold_left
          (fun (bc, bcap) cand ->
            let refined = kl_refine g cand in
            let c = Cut.capacity g refined in
            if c < bcap then (refined, c) else (bc, bcap))
          (Array.make n false, infinity)
          candidates
      in
      fst best
    end
  in
  let fwd, bwd = Cut.demand_across flows cut in
  let dem = max fwd bwd in
  if dem <= 0.0 then infinity else Cut.capacity g cut /. dem
