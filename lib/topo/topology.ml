module Graph = Tb_graph.Graph

(* A topology instance: a switch-level graph plus the placement of
   servers (traffic endpoints).

   Two shapes exist in the paper's zoo:
   - switch-centric networks (fat tree, hypercube, Jellyfish, ...):
     every graph node is a switch, and [hosts.(v)] servers hang off
     switch [v] over infinite-capacity edge links (so they are not
     represented as graph nodes — the TM aggregates to switch pairs);
   - server-centric networks (BCube, DCell): servers relay traffic, so
     they are real graph nodes with unit-capacity links, flagged by
     [hosts.(v) = 1] and identified by [kind]. *)

type kind = Switch_centric | Server_centric

type t = {
  name : string;
  params : string;
  kind : kind;
  graph : Graph.t;
  hosts : int array; (* servers attached at each node *)
}

let make ~name ~params ~kind ~graph ~hosts =
  if Array.length hosts <> Graph.num_nodes graph then
    invalid_arg "Topology.make: hosts length mismatch";
  Array.iter
    (fun h -> if h < 0 then invalid_arg "Topology.make: negative hosts")
    hosts;
  { name; params; kind; graph; hosts }

let num_servers t = Array.fold_left ( + ) 0 t.hosts

let num_switches t =
  match t.kind with
  | Switch_centric -> Graph.num_nodes t.graph
  | Server_centric ->
    (* Server-centric nodes with hosts = 0 are the switches. *)
    Array.fold_left (fun acc h -> if h = 0 then acc + 1 else acc) 0 t.hosts

(* Nodes that terminate traffic, with multiplicity = attached servers. *)
let endpoint_nodes t =
  let out = ref [] in
  for v = Array.length t.hosts - 1 downto 0 do
    if t.hosts.(v) > 0 then out := v :: !out
  done;
  Array.of_list !out

let label t = Printf.sprintf "%s(%s)" t.name t.params

let pp ppf t =
  Fmt.pf ppf "%s: %a, %d servers" (label t) Graph.pp t.graph (num_servers t)

(* Uniform helper: switch-centric topology with [h] servers at every
   switch. *)
let switch_centric ~name ~params ~hosts_per_switch graph =
  make ~name ~params ~kind:Switch_centric ~graph
    ~hosts:(Array.make (Graph.num_nodes graph) hosts_per_switch)

(* Same fabric with a different server placement. *)
let with_hosts t hosts = make ~name:t.name ~params:t.params ~kind:t.kind ~graph:t.graph ~hosts

(* Same fabric with exactly one server per *endpoint* — the per-switch
   unit-volume convention used by the TM-ladder experiments. Nodes that
   host no servers (fat-tree aggregation/core switches) stay hostless. *)
let unit_hosts t =
  match t.kind with
  | Server_centric -> t
  | Switch_centric -> with_hosts t (Array.map (fun h -> min h 1) t.hosts)

(* [total] servers spread as evenly as possible over all [n] nodes (the
   Jellyfish placement used for random-graph baselines). Server j lands
   on node floor(j * n / total), striding across the whole index range —
   filling a prefix instead would recreate the original placement
   whenever the input's endpoints happen to be the low indices. *)
let spread_hosts ~n ~total =
  let hosts = Array.make n 0 in
  for j = 0 to total - 1 do
    let v = j * n / total in
    hosts.(min (n - 1) v) <- hosts.(min (n - 1) v) + 1
  done;
  hosts
