module Json = Tb_obs.Json
module Events = Tb_obs.Events

let src = Logs.Src.create "tb.service.store" ~doc:"service result store"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  path : string;
  tbl : (string, Json.t) Hashtbl.t;
  mutable oc : out_channel option; (* opened lazily on first append *)
}

let line_of hash result =
  Json.to_string (Json.Obj [ ("hash", Json.String hash); ("result", result) ])

(* ---- Cross-process exclusive lock. ----

   {!merge} replaces its target file (temp + rename), so a concurrent
   appender must not be mid-write during the swap, and an appender must
   notice the swap and re-open before its next write. Both sides take a
   POSIX advisory lock on [path ^ ".lock"]: [lockf] locks die with
   their process, so a `kill -9` mid-merge can never wedge the
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

(* Torn lines are skipped by the fold; a well-formed object that is not
   an entry counts as unreadable too. *)
let read_into tbl order path =
  let bad, skipped =
    Events.fold
      (fun bad doc ->
        match (Json.member "hash" doc, Json.member "result" doc) with
        | Some (Json.String h), Some r ->
          if not (Hashtbl.mem tbl h) then order := h :: !order;
          Hashtbl.replace tbl h r;
          bad
        | _ -> bad + 1)
      0 path
  in
  bad + skipped

let open_ ~path =
  let t = { path; tbl = Hashtbl.create 64; oc = None } in
  let skipped = read_into t.tbl (ref []) path in
  if skipped > 0 then
    Log.warn (fun m ->
        m "store %s: skipped %d unreadable line(s) (torn write?)" path skipped);
  t

let length t = Hashtbl.length t.tbl
let mem t h = Hashtbl.mem t.tbl h
let find t h = Hashtbl.find_opt t.tbl h

let open_channel t =
  let oc = Events.open_append t.path in
  t.oc <- Some oc;
  oc

(* Is the open append channel still the file at [path]? A concurrent
   {!merge} into this path swaps a fresh inode in via rename, orphaning
   the old fd: writes to it would land in the unlinked file and be
   lost. *)
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
      Events.append_line oc (line_of h r))

(* Temp names carry the pid so two processes merging into the same store
   never clobber each other's scratch file. *)
let temp_name path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())

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
