(* Traffic-matrix files: one flow per line, whitespace separated —

     <src-node> <dst-node> <weight>

   '#' comments and blank lines ignored. Node ids follow the topology
   file the TM is used with. *)

exception Parse_error of { file : string; line : int; msg : string }

let error_message ~file ~line ~msg =
  if line > 0 then Printf.sprintf "%s:%d: %s" file line msg
  else Printf.sprintf "%s: %s" file msg

let parse_lines ~file lines =
  let fail line msg = raise (Parse_error { file; line; msg }) in
  let flows = ref [] in
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
      | [ u; v; w ] -> (
        match (int_of_string_opt u, int_of_string_opt v, float_of_string_opt w)
        with
        | Some u, Some v, Some w
          when u >= 0 && v >= 0 && Float.is_finite w && w >= 0.0 ->
          flows := (u, v, w) :: !flows
        | _ ->
          fail line "bad flow line (want nonnegative: src dst weight, finite)")
      | _ -> fail line "expected: src dst weight")
    lines;
  Tm.make ~label:"file" (Array.of_list (List.rev !flows))

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

let load_result path =
  match load path with
  | tm -> Ok tm
  | exception Parse_error { file; line; msg } ->
    Error (error_message ~file ~line ~msg)
  | exception Sys_error msg -> Error msg

let to_string tm =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun (u, v, w) -> Buffer.add_string buf (Printf.sprintf "%d %d %g\n" u v w))
    (Tm.flows tm);
  Buffer.contents buf
