(* The record log: ndjson append primitives, a torn-tolerant fold, and
   the rotating writer built on them. See events.mli.

   The writer reopens lazily after rotation and tracks the byte count
   itself (seeded from the existing file size) so rotation needs no
   stat per record. Flush-per-record means a SIGKILL loses at most one
   line, and that line is exactly what [fold] skips. *)

(* A killed writer can leave the file without a trailing newline; the
   next append must not concatenate onto the torn line, so it is
   newline-terminated first. *)
let open_append path =
  let torn =
    Sys.file_exists path
    &&
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let torn =
      len > 0
      &&
      (seek_in ic (len - 1);
       input_char ic <> '\n')
    in
    close_in ic;
    torn
  in
  let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
  if torn then output_char oc '\n';
  oc

let append_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let fold f init path =
  if not (Sys.file_exists path) then (init, 0)
  else begin
    let ic = open_in_bin path in
    let acc = ref init and skipped = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match Json.of_string line with
           | Ok (Json.Obj _ as doc) -> acc := f !acc doc
           | Ok _ | Error _ -> incr skipped
       done
     with End_of_file -> ());
    close_in ic;
    (!acc, !skipped)
  end

type writer = {
  w_path : string;
  max_bytes : int;
  max_keep : int;
  mutable oc : out_channel option;
  mutable bytes : int;
}

let open_ ?(max_bytes = 64 * 1024 * 1024) ?(max_keep = 3) path =
  { w_path = path; max_bytes; max_keep; oc = None; bytes = 0 }

let close w =
  match w.oc with
  | None -> ()
  | Some oc ->
    close_out oc;
    w.oc <- None

let rotated w i = Printf.sprintf "%s.%d" w.w_path i

let rotate w =
  close w;
  for i = w.max_keep - 1 downto 1 do
    if Sys.file_exists (rotated w i) then Sys.rename (rotated w i) (rotated w (i + 1))
  done;
  if w.max_keep > 0 && Sys.file_exists w.w_path then
    Sys.rename w.w_path (rotated w 1);
  w.bytes <- 0

let channel w =
  match w.oc with
  | Some oc -> oc
  | None ->
    let oc = open_append w.w_path in
    w.bytes <- out_channel_length oc;
    w.oc <- Some oc;
    oc

let write w fields =
  let line = Json.to_string (Json.Obj fields) in
  if w.bytes > 0 && w.bytes + String.length line + 1 > w.max_bytes then
    rotate w;
  append_line (channel w) line;
  w.bytes <- w.bytes + String.length line + 1

let read path =
  let records, skipped = fold (fun acc doc -> doc :: acc) [] path in
  (List.rev records, skipped)
