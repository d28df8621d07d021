module Json = Tb_obs.Json
module Catalog = Tb_topo.Catalog
module Synthetic = Tb_tm.Synthetic
module Realworld = Tb_tm.Realworld
module Rng = Tb_prelude.Rng

type topo_spec = Spec of Catalog.spec | Inline_topo of string
type tm_spec = Named of string | Inline_tm of string
type solver = Auto | Exact_lp | Fptas | Cut_bound

type t = {
  topo : topo_spec;
  tm : tm_spec;
  solver : solver;
  eps : float;
  tol : float;
  budget_ms : float;
  seed : int;
}

let default_policy = Tb_harness.Solve.default_policy

let make ?(solver = Auto) ?(eps = default_policy.Tb_harness.Solve.eps)
    ?(tol = default_policy.Tb_harness.Solve.tol) ?(budget_ms = infinity)
    ?(seed = 42) ~topo ~tm () =
  { topo; tm; solver; eps; tol; budget_ms; seed }

(* The seed only drives named-TM generation; an inline instance is fully
   determined by its bytes, so pinning the seed keeps requests for the
   same instance hash-equal no matter which driver built them. *)
let of_instance ?solver ?eps ?tol ?budget_ms topo tm =
  make ?solver ?eps ?tol ?budget_ms ~seed:0
    ~topo:(Inline_topo (Tb_topo.Io.to_string topo))
    ~tm:(Inline_tm (Tb_tm.Io.to_string tm))
    ()

let solver_name = function
  | Auto -> "auto"
  | Exact_lp -> "exact"
  | Fptas -> "fptas"
  | Cut_bound -> "cuts"

let solver_of_string s =
  match String.lowercase_ascii s with
  | "auto" -> Some Auto
  | "exact" | "exact_lp" | "exact-lp" -> Some Exact_lp
  | "fptas" | "approx" -> Some Fptas
  | "cuts" | "cut_bound" | "cut-bound" -> Some Cut_bound
  | _ -> None

let known_tms = [ "a2a"; "rm1"; "rm5"; "lm"; "kodialam"; "tmh"; "tmf" ]

let canonical_tm_name s =
  match String.lowercase_ascii s with
  | "rm" -> Some "rm1"
  | s -> if List.exists (String.equal s) known_tms then Some s else None

let build_named_tm ~seed topo name =
  match canonical_tm_name name with
  | None -> None
  | Some name ->
    (* Same generation the CLI has always used: the TM rng is derived
       from seed + 1 so it never aliases the topology construction. *)
    let rng = Rng.make (seed + 1) in
    Some
      (match name with
      | "a2a" -> Synthetic.all_to_all topo
      | "rm1" -> Synthetic.random_matching ~k:1 rng topo
      | "rm5" -> Synthetic.random_matching ~k:5 rng topo
      | "lm" -> Synthetic.longest_matching topo
      | "kodialam" -> Synthetic.kodialam topo
      | "tmh" -> Realworld.instantiate topo Realworld.Hadoop
      | "tmf" -> Realworld.instantiate topo Realworld.Frontend
      | _ -> assert false)

(* ---- Canonical serialization and hashing. ---- *)

(* Floats render through the Json printer: it is a print/parse fixpoint
   (test_obs proves it), so a parsed-back request re-serializes to the
   same bytes — the property the content hash rests on. Nearly every
   request carries the policy's eps and tol, so those two renderings are
   kept; both are non-zero, and [=] against a non-zero float holds only
   for the very same bits. *)
let default_eps = default_policy.Tb_harness.Solve.eps
let default_tol = default_policy.Tb_harness.Solve.tol
let default_eps_repr = Json.float_to_string default_eps
let default_tol_repr = Json.float_to_string default_tol

let float_repr x =
  if x = default_eps then default_eps_repr
  else if x = default_tol then default_tol_repr
  else Json.float_to_string x

(* Re-parsing the rendered spec resolves family aliases and makes the
   default size explicit. For a family already in canonical form the
   round trip can change nothing but [size = None] into the default the
   renderer prints anyway, so only an alias (or a hand-built record
   whose family no parser produced) pays for it. *)
let canon_spec (sp : Catalog.spec) =
  if List.exists (String.equal sp.Catalog.family) Catalog.known_families then sp
  else
    match Catalog.spec_of_string (Catalog.spec_to_string sp) with
    | Ok sp' -> sp'
    | Error _ -> sp

let add_inline buf s =
  Buffer.add_string buf "inline[";
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_string buf "]=";
  Buffer.add_string buf s

let add_topo_key buf t =
  match t.topo with
  | Spec sp ->
    Buffer.add_string buf "spec=";
    Buffer.add_string buf (Catalog.spec_to_string (canon_spec sp))
  | Inline_topo s -> add_inline buf s

let topo_key t =
  let buf = Buffer.create 64 in
  add_topo_key buf t;
  Buffer.contents buf

(* Only named TMs consume the seed, so it is excluded from the bytes of
   inline-TM requests: drivers that pin different seeds still share
   cache entries for identical instances. *)
let canonical_bytes t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "topobench.request.v1\ntopo.";
  add_topo_key buf t;
  Buffer.add_string buf "\ntm.";
  (match t.tm with
  | Named n ->
    Buffer.add_string buf "named=";
    Buffer.add_string buf
      (match canonical_tm_name n with
      | Some n -> n
      | None -> String.lowercase_ascii n)
  | Inline_tm s -> add_inline buf s);
  Buffer.add_string buf "\nsolver=";
  Buffer.add_string buf (solver_name t.solver);
  Buffer.add_string buf "\neps=";
  Buffer.add_string buf (float_repr t.eps);
  Buffer.add_string buf "\ntol=";
  Buffer.add_string buf (float_repr t.tol);
  Buffer.add_string buf "\nbudget_ms=";
  Buffer.add_string buf (float_repr t.budget_ms);
  Buffer.add_string buf "\nseed=";
  Buffer.add_string buf
    (match t.tm with Named _ -> string_of_int t.seed | Inline_tm _ -> "-");
  Buffer.contents buf

let hash t = Digest.to_hex (Digest.string (canonical_bytes t))

(* ---- JSON round-trip. ---- *)

let to_json t =
  let topo =
    match t.topo with
    | Spec sp ->
      Json.Obj [ ("spec", Json.String (Catalog.spec_to_string (canon_spec sp))) ]
    | Inline_topo s -> Json.Obj [ ("inline", Json.String s) ]
  in
  let tm =
    match t.tm with
    | Named n ->
      let n = match canonical_tm_name n with Some n -> n | None -> n in
      Json.Obj [ ("named", Json.String n) ]
    | Inline_tm s -> Json.Obj [ ("inline", Json.String s) ]
  in
  Json.Obj
    [
      ("topo", topo);
      ("tm", tm);
      ("solver", Json.String (solver_name t.solver));
      ("eps", Json.Float t.eps);
      ("tol", Json.Float t.tol);
      ("budget_ms", Json.Float t.budget_ms);
      ("seed", Json.Int t.seed);
    ]

let of_json doc =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let str_member field j =
    match Json.member field j with
    | Some (Json.String s) -> Some s
    | _ -> None
  in
  let* topo =
    match Json.member "topo" doc with
    | None -> Error "request: missing \"topo\""
    | Some j -> (
      match (str_member "spec" j, str_member "inline" j) with
      | Some s, _ ->
        let* sp = Catalog.spec_of_string s in
        Ok (Spec sp)
      | None, Some s -> Ok (Inline_topo s)
      | None, None ->
        Error "request: \"topo\" needs a \"spec\" or \"inline\" field")
  in
  let* tm =
    match Json.member "tm" doc with
    | None -> Error "request: missing \"tm\""
    | Some j -> (
      match (str_member "named" j, str_member "inline" j) with
      | Some n, _ -> (
        match canonical_tm_name n with
        | Some n -> Ok (Named n)
        | None ->
          Error
            (Printf.sprintf "request: unknown TM %S (known: %s)" n
               (String.concat ", " known_tms)))
      | None, Some s -> Ok (Inline_tm s)
      | None, None ->
        Error "request: \"tm\" needs a \"named\" or \"inline\" field")
  in
  let* solver =
    match Json.member "solver" doc with
    | None -> Ok Auto
    | Some (Json.String s) -> (
      match solver_of_string s with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "request: unknown solver %S" s))
    | Some _ -> Error "request: \"solver\" must be a string"
  in
  let float_field name default =
    match Json.member name doc with
    | None -> Ok default
    | Some j -> (
      match Json.to_float j with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "request: %S must be a number" name))
  in
  let* eps = float_field "eps" default_policy.Tb_harness.Solve.eps in
  let* () =
    if eps > 0.0 && eps < 1.0 then Ok ()
    else Error "request: \"eps\" must lie in (0, 1)"
  in
  let* tol = float_field "tol" default_policy.Tb_harness.Solve.tol in
  let* () =
    if Float.is_finite tol && tol > 0.0 then Ok ()
    else Error "request: \"tol\" must be positive and finite"
  in
  let* budget_ms = float_field "budget_ms" infinity in
  let* seed =
    match Json.member "seed" doc with
    | None -> Ok 42
    | Some j -> (
      match Json.to_int j with
      | Some v -> Ok v
      | None -> Error "request: \"seed\" must be an integer")
  in
  Ok { topo; tm; solver; eps; tol; budget_ms; seed }

let of_line line =
  match Json.of_string line with
  | Error e -> Error ("request: unparsable JSON: " ^ e)
  | Ok doc -> of_json doc

(* ---- Instance construction. ---- *)

let build_topology = function
  | Spec sp -> Catalog.build_spec sp
  | Inline_topo s -> Tb_topo.Io.of_string ~file:"<request>" s

let build_tm t topo =
  match t.tm with
  | Named n -> (
    match build_named_tm ~seed:t.seed topo n with
    | Some tm -> tm
    | None -> failwith (Printf.sprintf "unknown TM %S" n))
  | Inline_tm s -> Tb_tm.Io.of_string ~file:"<request>" s

let build t =
  let topo = build_topology t.topo in
  (topo, build_tm t topo)
