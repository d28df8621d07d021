module Json = Tb_obs.Json

let src = Logs.Src.create "tb.service.store" ~doc:"service result store"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  path : string;
  tbl : (string, Json.t) Hashtbl.t;
  mutable order : string list; (* insertion order, newest first *)
  mutable oc : out_channel option; (* opened lazily on first append *)
}

let line_of hash result =
  Json.to_string (Json.Obj [ ("hash", Json.String hash); ("result", result) ])

let parse_line line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok doc -> (
    match (Json.member "hash" doc, Json.member "result" doc) with
    | Some (Json.String h), Some r -> Ok (h, r)
    | _ -> Error "expected {\"hash\": ..., \"result\": ...}")

(* ---- Cross-process exclusive lock. ----

   Compaction replaces the file (temp + rename), so a concurrent
   appender must not be mid-write during the swap, and an appender must
   notice the swap and re-open before its next write. Both sides take a
   POSIX advisory lock on [path ^ ".lock"]: [lockf] locks die with
   their process, so a `kill -9` mid-compaction can never wedge the
   store the way an O_EXCL sentinel file would. *)

let lock_path path = path ^ ".lock"

exception Lock_timeout of string

let with_lock path f =
  let fd =
    Unix.openfile (lock_path path) [ Unix.O_CREAT; Unix.O_RDWR ] 0o644
  in
  let acquire () =
    (* Bounded backoff: ~1s of increasingly patient retries, then a
       typed failure rather than a silent hang. Lock holders only ever
       do one write or one file rewrite, so contention is brief. *)
    let rec go attempt =
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
        if attempt >= 100 then raise (Lock_timeout (lock_path path));
        Unix.sleepf (0.001 *. float_of_int (1 + min attempt 20));
        go (attempt + 1)
    in
    go 0
  in
  (try acquire ()
   with e ->
     Unix.close fd;
     raise e);
  Fun.protect
    ~finally:(fun () ->
      (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
      Unix.close fd)
    f

let read_into tbl order path =
  let skipped = ref 0 in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match parse_line line with
           | Ok (h, r) ->
             if not (Hashtbl.mem tbl h) then order := h :: !order;
             Hashtbl.replace tbl h r
           | Error _ -> incr skipped
       done
     with End_of_file -> ());
    close_in ic
  end;
  !skipped

let open_ ~path =
  let t = { path; tbl = Hashtbl.create 64; order = []; oc = None } in
  let order = ref [] in
  let skipped = read_into t.tbl order path in
  t.order <- !order;
  if skipped > 0 then
    Log.warn (fun m ->
        m "store %s: skipped %d unreadable line(s) (torn write?)" path skipped);
  t

let length t = Hashtbl.length t.tbl
let mem t h = Hashtbl.mem t.tbl h
let find t h = Hashtbl.find_opt t.tbl h

(* A killed writer can leave the file without a trailing newline; the
   next append must not concatenate onto the torn line. *)
let missing_final_newline path =
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

let open_channel t =
  let torn = missing_final_newline t.path in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 t.path
  in
  if torn then output_char oc '\n';
  t.oc <- Some oc;
  oc

(* Is the open append channel still the file at [path]? A concurrent
   {!compact} swaps a fresh inode in via rename, orphaning the old fd:
   writes to it would land in the unlinked file and be lost. *)
let channel_current t oc =
  match Unix.stat t.path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> false
  | st ->
    let stf = Unix.fstat (Unix.descr_of_out_channel oc) in
    st.Unix.st_ino = stf.Unix.st_ino && st.Unix.st_dev = stf.Unix.st_dev

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
    close_out oc;
    t.oc <- None

(* Re-open-with-retry: under the lock a single reopen must succeed, but
   a transient ENOENT window (another process mid-rename outside the
   protocol) gets a few patient retries rather than an exception. *)
let fresh_channel t =
  let rec go attempt =
    match open_channel t with
    | oc -> oc
    | exception Sys_error _ when attempt < 5 ->
      Unix.sleepf (0.002 *. float_of_int (attempt + 1));
      go (attempt + 1)
  in
  go 0

let append t h r =
  if not (Hashtbl.mem t.tbl h) then t.order <- h :: t.order;
  Hashtbl.replace t.tbl h r;
  with_lock t.path (fun () ->
      let oc =
        match t.oc with
        | Some oc when channel_current t oc -> oc
        | Some oc ->
          (* The file was swapped (or removed) underneath us: abandon
             the orphaned fd and re-attach to the live inode. *)
          close_out oc;
          t.oc <- None;
          fresh_channel t
        | None -> fresh_channel t
      in
      output_string oc (line_of h r);
      output_char oc '\n';
      flush oc)

(* Temp names carry the pid so two processes compacting the same store
   never clobber each other's scratch file. *)
let temp_name path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())

let compact t =
  close t;
  with_lock t.path (fun () ->
      (* Absorb appends made by other processes since our open: every
         append writes through to disk under this same lock, so the
         on-disk file is the union of all appenders (ours included).
         Re-reading it makes the rewrite loss-free even against a
         concurrent appender. *)
      let tbl = Hashtbl.create (Hashtbl.length t.tbl) in
      let order = ref [] in
      ignore (read_into tbl order t.path);
      Hashtbl.reset t.tbl;
      Hashtbl.iter (fun k v -> Hashtbl.replace t.tbl k v) tbl;
      t.order <- !order;
      let tmp = temp_name t.path in
      let oc = open_out_bin tmp in
      List.iter
        (fun h ->
          match Hashtbl.find_opt t.tbl h with
          | Some r ->
            output_string oc (line_of h r);
            output_char oc '\n'
          | None -> ())
        (List.rev t.order);
      close_out oc;
      Sys.rename tmp t.path)

let merge ~into paths =
  let tbl = Hashtbl.create 256 in
  let order = ref [] in
  (* Later segments win on hash collisions — irrelevant in practice
     because results are content-addressed and deterministic, so two
     segments never disagree about a hash. An existing [into] file is
     folded in first, so repeated merges accumulate rather than
     clobber. *)
  with_lock into (fun () ->
      List.iter
        (fun p -> ignore (read_into tbl order p))
        (into :: List.filter (fun p -> p <> into) paths);
      let tmp = temp_name into in
      let oc = open_out_bin tmp in
      List.iter
        (fun h ->
          match Hashtbl.find_opt tbl h with
          | Some r ->
            output_string oc (line_of h r);
            output_char oc '\n'
          | None -> ())
        (List.rev !order);
      close_out oc;
      Sys.rename tmp into);
  Hashtbl.length tbl
