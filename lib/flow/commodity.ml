module Graph = Tb_graph.Graph
(* A commodity is one end-to-end demand: route [demand * t] units from
   [src] to [dst], where [t] is the concurrent throughput being
   maximized. Traffic matrices lower to arrays of commodities. *)

type t = { src : int; dst : int; demand : float }

let make ~src ~dst ~demand =
  if demand < 0.0 then invalid_arg "Commodity.make: negative demand";
  { src; dst; demand }

(* Drop degenerate entries (zero demand or self-loops); the throughput
   of a TM is defined over its real flows only. *)
let normalize cs =
  Array.of_list
    (List.filter
       (fun c -> c.demand > 0.0 && c.src <> c.dst)
       (Array.to_list cs))

let total_demand cs = Array.fold_left (fun acc c -> acc +. c.demand) 0.0 cs

(* Group commodity indices by source node; the FPTAS routes one source's
   commodities off a single shortest-path tree. *)
let group_by_source ~n cs =
  let buckets = Array.make n [] in
  Array.iteri (fun i c -> buckets.(c.src) <- i :: buckets.(c.src)) cs;
  let groups = ref [] in
  for s = n - 1 downto 0 do
    match buckets.(s) with
    | [] -> ()
    | l -> groups := (s, Array.of_list l) :: !groups
  done;
  Array.of_list !groups

let pp ppf c = Fmt.pf ppf "%d->%d:%g" c.src c.dst c.demand
