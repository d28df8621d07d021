module Graph = Tb_graph.Graph

(* Plain-text topology files, so external tools (or the original
   TopoBench's topology dumps) can be benchmarked with this framework.

   Format — one directive per line, '#' comments, blank lines ignored:

     name <string>            optional, default "file"
     kind switch|server       optional, default switch
     nodes <n>                required, before any edge/hosts line
     hosts <v> <count>        servers at node v (default 0 everywhere)
     hosts-all <count>        servers at every node
     edge <u> <v> [cap]       undirected link, capacity defaults to 1 *)

exception Parse_error of { file : string; line : int; msg : string }

(* One-line rendering with file/line context, the shape the CLI prints
   before exiting 2. Line 0 marks whole-file problems. *)
let error_message ~file ~line ~msg =
  if line > 0 then Printf.sprintf "%s:%d: %s" file line msg
  else Printf.sprintf "%s: %s" file msg

let parse_lines ~file lines =
  let fail line msg = raise (Parse_error { file; line; msg }) in
  let name = ref "file" in
  let kind = ref Topology.Switch_centric in
  let n = ref (-1) in
  let hosts = ref [||] in
  let hosts_seen = ref false in
  let edges = ref [] in
  let require_nodes line =
    if !n < 0 then fail line "'nodes' must come before this directive"
  in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let text =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      match
        String.split_on_char ' ' (String.trim text)
        |> List.filter (fun s -> s <> "")
      with
      | [] -> ()
      | [ "name"; v ] -> name := v
      | [ "kind"; "switch" ] -> kind := Topology.Switch_centric
      | [ "kind"; "server" ] -> kind := Topology.Server_centric
      | [ "nodes"; v ] -> (
        match int_of_string_opt v with
        | Some k when k > 0 ->
          n := k;
          hosts := Array.make k 0
        | _ -> fail line "bad node count")
      | [ "hosts"; v; c ] -> (
        require_nodes line;
        hosts_seen := true;
        match (int_of_string_opt v, int_of_string_opt c) with
        | Some v, Some c when v >= 0 && v < !n && c >= 0 -> !hosts.(v) <- c
        | _ -> fail line "bad hosts directive")
      | [ "hosts-all"; c ] -> (
        require_nodes line;
        hosts_seen := true;
        match int_of_string_opt c with
        | Some c when c >= 0 -> Array.fill !hosts 0 !n c
        | _ -> fail line "bad hosts-all directive")
      | "edge" :: rest -> (
        require_nodes line;
        match rest with
        | [ u; v ] | [ u; v; _ ] -> (
          let cap =
            match rest with
            | [ _; _; c ] -> (
              match float_of_string_opt c with
              | Some c when Float.is_finite c && c > 0.0 -> c
              | _ -> fail line "bad capacity")
            | _ -> 1.0
          in
          match (int_of_string_opt u, int_of_string_opt v) with
          | Some u, Some v when u >= 0 && u < !n && v >= 0 && v < !n && u <> v
            ->
            edges := (u, v, cap) :: !edges
          | _ -> fail line "bad edge endpoints")
        | _ -> fail line "edge takes 2 or 3 fields")
      | directive :: _ -> fail line ("unknown directive " ^ directive))
    lines;
  if !n < 0 then fail 0 "missing 'nodes' directive";
  let graph =
    try Graph.of_edges ~n:!n (List.rev !edges)
    with Invalid_argument m -> fail 0 m
  in
  (* Default server placement: one per node when the file has no hosts
     directive at all. *)
  if not !hosts_seen then Array.fill !hosts 0 !n 1;
  Topology.make ~name:!name ~params:"file" ~kind:!kind ~graph ~hosts:!hosts

let of_string ?(file = "<string>") s =
  parse_lines ~file (String.split_on_char '\n' s)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      parse_lines ~file:path (List.rev !lines))

(* Exception-free front end: malformed content and filesystem errors
   come back as one printable line. *)
let load_result path =
  match load path with
  | t -> Ok t
  | exception Parse_error { file; line; msg } ->
    Error (error_message ~file ~line ~msg)
  | exception Sys_error msg -> Error msg

let to_string (t : Topology.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "name %s\n" t.Topology.name);
  Buffer.add_string buf
    (match t.Topology.kind with
    | Topology.Switch_centric -> "kind switch\n"
    | Topology.Server_centric -> "kind server\n");
  Buffer.add_string buf
    (Printf.sprintf "nodes %d\n" (Graph.num_nodes t.Topology.graph));
  Array.iteri
    (fun v h ->
      if h > 0 then Buffer.add_string buf (Printf.sprintf "hosts %d %d\n" v h))
    t.Topology.hosts;
  Graph.iter_edges
    (fun _ e ->
      Buffer.add_string buf
        (if e.Graph.cap = 1.0 then
           Printf.sprintf "edge %d %d\n" e.Graph.u e.Graph.v
         else Printf.sprintf "edge %d %d %g\n" e.Graph.u e.Graph.v e.Graph.cap))
    t.Topology.graph;
  Buffer.contents buf
