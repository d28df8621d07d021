(* Aligned plain-text tables for the benchmark harness: every figure and
   table of the paper is regenerated as rows printed through this module,
   so the output is diffable and easy to plot externally. *)

type align = Left | Right

type t = {
  title : string;
  headers : string list;
  mutable rows : string list list; (* reverse order *)
}

let create ~title headers = { title; headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let cell_f x = Printf.sprintf "%.4f" x

let render ?(align = Right) t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncol = List.length t.headers in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncol width in
  let pad w s =
    let k = w - String.length s in
    if k <= 0 then s
    else
      match align with
      | Right -> String.make k ' ' ^ s
      | Left -> s ^ String.make k ' '
  in
  let line row =
    String.concat "  " (List.map2 pad widths row)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("## " ^ t.title ^ "\n");
  Buffer.add_string buf (line t.headers ^ "\n");
  Buffer.add_string buf
    (String.concat "  " (List.map (fun w -> String.make w '-') widths) ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (line r ^ "\n")) rows;
  Buffer.contents buf

let print ?align t = print_string (render ?align t)
