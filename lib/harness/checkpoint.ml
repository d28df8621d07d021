module Json = Tb_obs.Json
module Events = Tb_obs.Events

(* Sweep checkpoint: completed (cell key -> result) pairs on the
   Tb_obs.Events record log, one appended line per record after a
   header line, so a sweep of N cells writes O(N) bytes.

   A kill mid-record leaves a torn final line, which the fold skips (the
   resume recomputes that cell). A file without the header is foreign:
   it loads as empty with a warning, and the first record replaces it
   (temp file + rename) instead of appending to its bytes — losing a
   checkpoint costs recomputation, not the run. *)

type t = {
  path : string;
  tbl : (string, Json.t) Hashtbl.t;
  mutable extra : Json.t option;
      (* carry-along state (e.g. a warm-start cache snapshot), written
         in the same line as the cell record it follows, so a resumed run
         sees exactly the state the interrupted run had after its last
         completed cell *)
  mutable oc : out_channel option;
      (* [None] until the first record; while [None], [headed] says
         whether the file on disk already starts with [header] *)
  mutable headed : bool;
}

let header = {|{"checkpoint":2}|}

let path t = t.path
let find t key = Hashtbl.find_opt t.tbl key
let extra t = t.extra

let load ~path =
  let t =
    { path; tbl = Hashtbl.create 64; extra = None; oc = None; headed = false }
  in
  if not (Sys.file_exists path) then t
  else if
    In_channel.with_open_bin path In_channel.input_line <> Some header
  then begin
    Logs.warn (fun m ->
        m "checkpoint %s: not a checkpoint log; starting from an empty \
           checkpoint" path);
    t
  end
  else begin
    let (), skipped =
      Events.fold
        (fun () doc ->
          match (Json.member "key" doc, Json.member "value" doc) with
          | Some (Json.String k), Some v ->
            Hashtbl.replace t.tbl k v;
            Option.iter (fun e -> t.extra <- Some e) (Json.member "extra" doc)
          | _ -> ())
        () path
    in
    if skipped > 0 then
      Logs.warn (fun m ->
          m "checkpoint %s: skipped %d torn line(s); their cells rerun" path
            skipped);
    t.headed <- true;
    t
  end

let channel t =
  match t.oc with
  | Some oc -> oc
  | None ->
    if not t.headed then begin
      let tmp = t.path ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc -> Events.append_line oc header);
      Sys.rename tmp t.path;
      t.headed <- true
    end;
    let oc = Events.open_append t.path in
    t.oc <- Some oc;
    oc

let record ?extra t key value =
  Hashtbl.replace t.tbl key value;
  Option.iter (fun e -> t.extra <- Some e) extra;
  let fields =
    ("key", Json.String key) :: ("value", value)
    :: (match extra with None -> [] | Some e -> [ ("extra", e) ])
  in
  Events.append_line (channel t) (Json.to_string (Json.Obj fields))
