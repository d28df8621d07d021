module Graph = Tb_graph.Graph

(* Long Hop networks [Tomic, ANCS'13]: Cayley graphs over Z_2^dim whose
   generator set extends the hypercube basis with "long hop" vectors
   derived from error-correcting codes, chosen to maximize bisection
   bandwidth.

   Substitution (documented in DESIGN.md): instead of transcribing
   Tomic's code tables we choose the extra generators greedily to
   maximize the spectral gap, using the exact eigenvalues of Cayley
   graphs on Z_2^dim: for character chi, lambda_chi =
   sum_{s in S} (-1)^(chi . s). Bisection of such a graph is governed by
   the worst character, so greedy gap maximization matches the
   construction's objective, and yields the expander-like behaviour the
   paper measures (throughput ~ random graph of equal equipment). *)

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let generators ~dim ~degree =
  if degree < dim then invalid_arg "Longhop.generators: degree < dim";
  if degree > (1 lsl dim) - 1 then
    invalid_arg "Longhop.generators: degree too large";
  let n = 1 lsl dim in
  (* Start from the hypercube basis; keep per-character eigenvalues
     incrementally so each candidate is evaluated in O(2^dim). *)
  let gens = ref (List.init dim (fun b -> 1 lsl b)) in
  let lambda = Array.make n 0.0 in
  let sign chi v = if popcount (chi land v) mod 2 = 0 then 1.0 else -1.0 in
  for chi = 0 to n - 1 do
    lambda.(chi) <-
      List.fold_left (fun acc s -> acc +. sign chi s) 0.0 !gens
  done;
  let have = Array.make n false in
  List.iter (fun s -> have.(s) <- true) !gens;
  for _ = dim + 1 to degree do
    (* Add the vector minimizing the worst nontrivial eigenvalue; ties
       broken by larger Hamming weight (longer hops), then numerically. *)
    let best = ref None in
    for v = 1 to n - 1 do
      if not have.(v) then begin
        let w = ref neg_infinity in
        for chi = 1 to n - 1 do
          let x = lambda.(chi) +. sign chi v in
          if x > !w then w := x
        done;
        let key = (!w, -popcount v, v) in
        match !best with
        | Some (bk, _) when bk <= key -> ()
        | _ -> best := Some (key, v)
      end
    done;
    match !best with
    | Some (_, v) ->
      gens := v :: !gens;
      have.(v) <- true;
      for chi = 0 to n - 1 do
        lambda.(chi) <- lambda.(chi) +. sign chi v
      done
    | None -> invalid_arg "Longhop.generators: exhausted vectors"
  done;
  !gens

let graph ~dim ~degree =
  let n = 1 lsl dim in
  let gens = generators ~dim ~degree in
  let edges = ref [] in
  for u = 0 to n - 1 do
    List.iter
      (fun s ->
        let v = u lxor s in
        if u < v then edges := (u, v) :: !edges)
      gens
  done;
  Graph.of_unit_edges ~n !edges

(* Default degree follows the paper's regime of hypercube-plus-long-hops
   with roughly 2x the base ports. *)
let make ?(hosts_per_switch = 1) ?degree ~dim () =
  let degree = match degree with Some d -> d | None -> min ((1 lsl dim) - 1) (2 * dim) in
  Topology.switch_centric ~name:"LongHop"
    ~params:(Printf.sprintf "dim=%d,deg=%d,h=%d" dim degree hosts_per_switch)
    ~hosts_per_switch (graph ~dim ~degree)
