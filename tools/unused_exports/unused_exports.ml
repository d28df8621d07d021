(* Unused-export checker. Reads the .cmt/.cmti files dune writes under
   _build (after [dune build @check]) and reports every [val] in an
   interface under the export directories that no other compilation
   unit under the caller directories references.

   A use is a value identifier whose path, once module aliases are
   resolved, names the export. [open M] is not a use, nor is an alias
   binding [module X = M] (top-level or [let module]) on its own. Any
   other module expression naming a module ([include M], a functor
   argument, [(module M)]) uses every value in M. So dune's generated
   alias units (source [*.ml-gen]), which hold only alias bindings,
   supply aliases and no uses. *)

open Typedtree

type report = {
  exported : int;
  dead : string list; (* exported, unreferenced and not allowlisted *)
  stale : string list; (* allowlist entries rejected, with the reason *)
}

let rec cmt_files path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f -> cmt_files (Filename.concat path f))
  else if Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"
  then [ path ]
  else []

(* A unit's top-level [module X = P], as [([unit; "X"], P)]. *)
let aliases (c : Cmt_format.cmt_infos) =
  match c.cmt_annots with
  | Implementation s ->
    List.filter_map
      (fun i ->
        match i.str_desc with
        | Tstr_module { mb_id = Some id; mb_expr = { mod_desc = Tmod_ident (p, _); _ }; _ } ->
          Some ([ c.cmt_modname; Ident.name id ], p)
        | _ -> None)
      s.str_items
  | _ -> []

let rec values prefix items =
  List.concat_map
    (fun i ->
      match i.sig_desc with
      | Tsig_value v -> [ prefix @ [ v.val_name.txt ] ]
      | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ }
        ->
        values (prefix @ [ m ]) s.sig_items
      | _ -> [])
    items

let check ~root ~exports ~callers ~allowlist =
  let load dirs =
    List.concat_map (fun d -> cmt_files (Filename.concat root d)) dirs
    |> List.map Cmt_format.read_cmt
  in
  let units = load callers in
  let alias_tbl = Hashtbl.create 256 in
  List.iter (fun c -> List.iter (fun (k, p) -> Hashtbl.replace alias_tbl k p) (aliases c)) units;
  (* [Some [unit; ...; name]] for a path rooted in a unit. *)
  let rec resolve locals : Path.t -> string list option = function
    | Pident id when Ident.global id -> Some [ Ident.name id ]
    | Pident id -> Hashtbl.find_opt locals id
    | Pdot (p, s) ->
      Option.bind (resolve locals p) (fun l ->
          let l = l @ [ s ] in
          match Hashtbl.find_opt alias_tbl l with
          | Some p -> resolve (Hashtbl.create 0) p
          | None -> Some l)
    | Papply _ | Pextra_ty _ -> None
  in
  let used = Hashtbl.create 4096 and mods = ref [] in
  let scan (c : Cmt_format.cmt_infos) =
    let locals = Hashtbl.create 16 and d = Tast_iterator.default_iterator in
    let alias id (me : module_expr) =
      match (id, me.mod_desc) with
      | Some id, (Tmod_ident (p, _) | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _))
        ->
        Option.iter (Hashtbl.replace locals id) (resolve locals p);
        true
      | _ -> false
    in
    let it =
      {
        d with
        open_declaration =
          (fun it o -> match o.open_expr.mod_desc with Tmod_ident _ -> () | _ -> d.open_declaration it o);
        module_binding =
          (fun it mb -> if not (alias mb.mb_id mb.mb_expr) then d.module_binding it mb);
        module_expr =
          (fun it me ->
            match me.mod_desc with
            | Tmod_ident (p, _) -> Option.iter (fun l -> mods := l :: !mods) (resolve locals p)
            | _ -> d.module_expr it me);
        expr =
          (fun it e ->
            match e.exp_desc with
            | Texp_ident (p, _, _) -> Option.iter (fun l -> Hashtbl.replace used l ()) (resolve locals p)
            | Texp_letmodule (id, _, _, me, body) when alias id me -> it.expr it body
            | _ -> d.expr it e);
      }
    in
    match c.cmt_annots with Implementation s -> it.structure it s | _ -> ()
  in
  List.iter scan units;
  let rec prefix m l =
    match (m, l) with [], _ -> true | a :: m, b :: l -> a = b && prefix m l | _ -> false
  in
  let live v = Hashtbl.mem used v || List.exists (fun m -> prefix m v) !mods in
  let names =
    load exports
    |> List.concat_map (fun (c : Cmt_format.cmt_infos) ->
           match c.cmt_annots with
           | Interface s -> values [ c.cmt_modname ] s.sig_items
           | _ -> [])
    |> List.map (fun v -> (Misc.replace_substring ~before:"__" ~after:"." (String.concat "." v), v))
  in
  (* Allowlist lines: [Lib.Module.value  # reason]; blank and [#] lines skipped. *)
  let entries =
    List.filter_map
      (fun line ->
        match String.trim line with
        | "" -> None
        | l when l.[0] = '#' -> None
        | l ->
          let name, reason = try Misc.cut_at l '#' with Not_found -> (l, "") in
          Some (String.trim name, String.trim reason))
      allowlist
  in
  let stale (name, reason) =
    match List.assoc_opt name names with
    | _ when reason = "" -> Some (name ^ ": no reason given")
    | None -> Some (name ^ ": not exported")
    | Some v when live v -> Some (name ^ ": referenced")
    | Some _ -> None
  in
  {
    exported = List.length names;
    dead = List.filter_map (fun (n, v) -> if live v || List.mem_assoc n entries then None else Some n) names;
    stale = List.filter_map stale entries;
  }
