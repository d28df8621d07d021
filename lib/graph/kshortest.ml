(* Yen's algorithm for the K shortest loopless paths, in one canonical
   order. The differential fuzzer's restricted-path subject enumerates
   with it; LLSKR's Fig. 15 paths are penalty-diverse Dijkstra paths
   instead ([Llskr.diverse_paths]).

   The closure length function is materialized into a Bigarray ONCE per
   [k_shortest] call and each spur query runs over the same reusable
   {!Sssp.state}: arc/node bans are applied by writing [infinity] into
   the shared length array and restored afterwards, in saved order — the
   earliest save of an arc is restored last, so double bans are safe.
   Banning a node bans every arc into it. *)

module A1 = Bigarray.Array1

type path = { arcs : int list; nodes : int list; length : float }

let path_of_arcs g ~len ~src arcs =
  let nodes, length =
    List.fold_left
      (fun (nodes, total) arc -> (Graph.arc_dst g arc :: nodes, total +. len arc))
      ([ src ], 0.0)
      arcs
  in
  { arcs; nodes = List.rev nodes; length }

(* The canonical total order: (length, node sequence), node
   sequences compared lexicographically. Distinct simple s->t paths are
   never prefixes of one another (both end at dst, and a proper prefix
   ending at dst would make the longer one non-simple), so this is a
   total order on the path universe. *)
let canonical_compare a b =
  let c = compare a.length b.length in
  if c <> 0 then c else compare a.nodes b.nodes

(* The (length, node-seq)-minimal shortest path from src to dst under
   the current [base] lengths, or None if unreachable. Requires
   strictly positive finite lengths for non-banned arcs (spur bans =
   infinity): positivity makes the tight-arc DAG below acyclic.

   The SSSP runs without early exit, which leaves non-settled
   distances that would corrupt the tight-arc test. Distances are the
   unique fixpoint of the Bellman equations over IEEE arithmetic (see
   {!Sssp}), so "tight" — [dist u +. len a = dist v], bit-equal — is
   deterministic and workhorse-independent. The tight arcs between
   marked nodes (those reaching dst via tight arcs) span exactly the
   shortest s->t paths; a forward greedy walk choosing the smallest-id
   marked successor yields the lexicographically minimal node
   sequence. *)
let canonical_shortest g ~base ~st ~src ~dst =
  Sssp.run g ~len:base ~src st;
  if not (Sssp.reached st dst) then None
  else begin
    let dist = Sssp.distance st in
    let n = Graph.num_nodes g in
    let mark = Array.make n false in
    let stack = ref [ dst ] in
    mark.(dst) <- true;
    while !stack <> [] do
      let v = List.hd !stack in
      stack := List.tl !stack;
      let dv = dist v in
      (* The graph is symmetric (arcs come in rev pairs), so every
         incoming arc of v is the reverse of an outgoing one. *)
      Graph.iter_succ
        (fun u arc ->
          let ra = Graph.arc_rev arc in
          if (not mark.(u)) && dist u +. A1.get base ra = dv then begin
            mark.(u) <- true;
            stack := u :: !stack
          end)
        g v
    done;
    if not mark.(src) then None
    else begin
      let rec walk u acc =
        if u = dst then Some (List.rev acc)
        else begin
          let du = dist u in
          let best_v = ref (-1) and best_arc = ref (-1) in
          Graph.iter_succ
            (fun v arc ->
              if
                mark.(v)
                && du +. A1.get base arc = dist v
                && (!best_v = -1 || v < !best_v)
              then begin
                best_v := v;
                best_arc := arc
              end)
            g u;
          if !best_v = -1 then None else walk !best_v (!best_arc :: acc)
        end
      in
      walk src []
    end
  end

let k_shortest g ~len ~src ~dst ~k =
  if k <= 0 then []
  else begin
    let n = Graph.num_nodes g in
    let num_arcs = Graph.num_arcs g in
    let base = Graph.make_floats num_arcs in
    for a = 0 to num_arcs - 1 do
      A1.set base a (len a)
    done;
    let st = Sssp.create_state n in
    let saved = ref [] in
    let ban_arc a =
      saved := (a, A1.get base a) :: !saved;
      A1.set base a infinity
    in
    let ban_node v =
      Graph.iter_succ (fun _ arc -> ban_arc (Graph.arc_rev arc)) g v
    in
    let restore () =
      List.iter (fun (a, l) -> A1.set base a l) !saved;
      saved := []
    in
    let shortest ~src ~dst = canonical_shortest g ~base ~st ~src ~dst in
    match shortest ~src ~dst with
    | None -> []
    | Some arcs0 ->
      let accepted = ref [ path_of_arcs g ~len ~src arcs0 ] in
      let candidates : path list ref = ref [] in
      let path_key p = p.arcs in
      let have_candidate p =
        List.exists (fun q -> path_key q = path_key p) !candidates
        || List.exists (fun q -> path_key q = path_key p) !accepted
      in
      let finished = ref false in
      while (not !finished) && List.length !accepted < k do
        let prev = List.hd !accepted in
        let prev_nodes = Array.of_list prev.nodes in
        let prev_arcs = Array.of_list prev.arcs in
        (* Spur from every node of the newest accepted path except dst. *)
        for i = 0 to Array.length prev_arcs - 1 do
          let spur_node = prev_nodes.(i) in
          let root_arcs = Array.sub prev_arcs 0 i in
          let root_list = Array.to_list root_arcs in
          let banned_arcs = Hashtbl.create 8 in
          (* Ban the next arc of every known path sharing this root. *)
          let ban_if_shares p =
            let pa = Array.of_list p.arcs in
            if Array.length pa > i && Array.sub pa 0 i = root_arcs then
              Hashtbl.replace banned_arcs pa.(i) ()
          in
          List.iter ban_if_shares !accepted;
          List.iter ban_if_shares !candidates;
          Hashtbl.iter (fun a () -> ban_arc a) banned_arcs;
          for j = 0 to i - 1 do
            ban_node prev_nodes.(j)
          done;
          (match shortest ~src:spur_node ~dst with
          | None -> ()
          | Some spur_arcs ->
            let total = root_list @ spur_arcs in
            let p = path_of_arcs g ~len ~src total in
            if not (have_candidate p) then candidates := p :: !candidates);
          restore ()
        done;
        match List.sort canonical_compare !candidates with
        | [] -> finished := true
        | best :: rest ->
          accepted := best :: !accepted;
          candidates := rest
      done;
      List.sort canonical_compare !accepted
  end
