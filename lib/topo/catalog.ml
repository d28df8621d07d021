module Rng = Tb_prelude.Rng

(* Instance enumeration for the experiments: per family, a size sweep
   (Figs. 5/6), a representative mid-size instance (Figs. 4, 10-14), and
   a small-instance set for the brute-force cut studies (Fig. 3,
   Table II).

   Sizes are scaled to what the pure-OCaml solver computes in seconds
   per point (the paper used Gurobi on 32 GB machines); the growth
   ranges preserve each family's scaling trend. *)

type family =
  | Bcube
  | Dcell
  | Dragonfly
  | Fattree
  | Flattened_bf
  | Hypercube
  | Hyperx
  | Jellyfish
  | Longhop
  | Slimfly

let all_families =
  [ Bcube; Dcell; Dragonfly; Fattree; Flattened_bf; Hypercube; Hyperx;
    Jellyfish; Longhop; Slimfly ]

let family_name = function
  | Bcube -> "BCube"
  | Dcell -> "DCell"
  | Dragonfly -> "Dragonfly"
  | Fattree -> "FatTree"
  | Flattened_bf -> "FlattenedBF"
  | Hypercube -> "Hypercube"
  | Hyperx -> "HyperX"
  | Jellyfish -> "Jellyfish"
  | Longhop -> "LongHop"
  | Slimfly -> "SlimFly"

let hyperx_of_servers ~servers ~bisection =
  match Hyperx.search ~servers ~bisection () with
  | Some c -> Hyperx.make c
  | None -> invalid_arg "Catalog: no HyperX configuration found"

(* ---- Textual instance specs. ----

   One parser for every front end (CLI flags, Tb_service requests,
   bench workloads). The canonical rendering makes every field explicit
   so equal instances produce byte-identical strings — the service
   layer hashes them. *)

type spec = {
  family : string;
  size : int option;
  degree : int;
  hosts : int;
  seed : int;
}

let known_families =
  [ "bcube"; "dcell"; "dragonfly"; "fattree"; "flatbf"; "hypercube";
    "hyperx"; "jellyfish"; "longhop"; "slimfly"; "xpander" ]

let canonical_family f =
  match String.lowercase_ascii f with
  | "flattenedbf" -> Some "flatbf"
  | f -> if List.exists (String.equal f) known_families then Some f else None

let default_size family =
  match family with "jellyfish" -> 16 | "slimfly" -> 5 | _ -> 4

let default_spec family = { family; size = None; degree = 6; hosts = 1; seed = 42 }

(* ---- Size validation. ----

   Family-specific representability checks, applied both when parsing a
   spec (typed [Error] instead of a deep [Invalid_argument] from a
   generator — or worse, a silently degenerate instance) and in
   {!build_spec}. Sizes are checked with the family default filled in,
   so a bare ["fattree"] is as validated as ["fattree:284"]. *)
let validate_spec sp =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let size = match sp.size with Some n -> n | None -> default_size sp.family in
  match sp.family with
  | "fattree" ->
    if size < 2 || size mod 2 <> 0 then
      err "fattree: k must be even and >= 2 (got %d)" size
    else Ok ()
  | "hypercube" ->
    if size < 1 || size > 20 then
      err "hypercube: dim must be in 1..20 (got %d)" size
    else Ok ()
  | "slimfly" ->
    if not (Slimfly.valid_q size) then
      err "slimfly: q must be a prime with q mod 4 = 1 (got %d; try 5, 13, 17, 29)"
        size
    else Ok ()
  | "longhop" ->
    (* The spectral generator search is O(4^dim) per added generator;
       beyond dim 12 it is no longer a topology constructor but a
       space heater. *)
    if size < 1 || size > 12 then
      err "longhop: dim must be in 1..12 (got %d)" size
    else Ok ()
  | "dragonfly" ->
    if size < 1 then err "dragonfly: h must be >= 1 (got %d)" size else Ok ()
  | "bcube" | "dcell" ->
    if size < 2 then err "%s: n must be >= 2 (got %d)" sp.family size else Ok ()
  | "flatbf" ->
    if size < 2 then err "flatbf: k must be >= 2 (got %d)" size else Ok ()
  | "hyperx" ->
    if size < 1 then err "hyperx: servers must be >= 1 (got %d)" size else Ok ()
  | "jellyfish" ->
    if size < 3 then err "jellyfish: n must be >= 3 (got %d)" size
    else if sp.degree < 2 || sp.degree >= size then
      err "jellyfish: need 2 <= degree < n (degree %d, n %d)" sp.degree size
    else if size * sp.degree mod 2 <> 0 then
      err "jellyfish: n * degree must be even (n %d, degree %d)" size sp.degree
    else Ok ()
  | "xpander" ->
    if size < 1 then err "xpander: lift must be >= 1 (got %d)" size
    else if sp.degree < 2 then
      err "xpander: degree must be >= 2 (got %d)" sp.degree
    else Ok ()
  | f -> err "unknown topology family %S" f

let spec_of_string s =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let int_field key v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Printf.sprintf "spec %S: bad value for %s: %S" s key v)
  in
  match String.split_on_char ',' (String.trim s) with
  | [] | [ "" ] -> Error "empty topology spec"
  | head :: opts ->
    let* family, size =
      match String.split_on_char ':' head with
      | [ f ] -> Ok (f, None)
      | [ f; sz ] ->
        let* n = int_field "size" sz in
        Ok (f, Some n)
      | _ -> Error (Printf.sprintf "spec %S: expected family[:size]" s)
    in
    let* family =
      match canonical_family family with
      | Some f -> Ok f
      | None ->
        Error
          (Printf.sprintf "unknown topology family %S (known: %s)" family
             (String.concat ", " known_families))
    in
    let* sp =
      List.fold_left
        (fun acc opt ->
          let* sp = acc in
          match String.index_opt opt '=' with
          | None ->
            Error (Printf.sprintf "spec %S: expected key=value, got %S" s opt)
          | Some i ->
            let key = String.sub opt 0 i in
            let v = String.sub opt (i + 1) (String.length opt - i - 1) in
            let* n = int_field key v in
            (match key with
            | "deg" | "degree" -> Ok { sp with degree = n }
            | "hosts" -> Ok { sp with hosts = n }
            | "seed" -> Ok { sp with seed = n }
            | _ -> Error (Printf.sprintf "spec %S: unknown key %S" s key)))
        (Ok { (default_spec family) with size })
        opts
    in
    let* () = validate_spec sp in
    Ok sp

let spec_to_string sp =
  let size = match sp.size with Some n -> n | None -> default_size sp.family in
  (* The bytes of [sprintf "%s:%d,deg=%d,hosts=%d,seed=%d"] without a
     format interpreter or a C call per field: a request hashes this on
     every cache hit. *)
  let buf = Buffer.create 48 in
  let rec add_int n =
    if n < 0 then Buffer.add_string buf (string_of_int n)
    else begin
      if n >= 10 then add_int (n / 10);
      Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))
    end
  in
  Buffer.add_string buf sp.family;
  Buffer.add_char buf ':';
  add_int size;
  Buffer.add_string buf ",deg=";
  add_int sp.degree;
  Buffer.add_string buf ",hosts=";
  add_int sp.hosts;
  Buffer.add_string buf ",seed=";
  add_int sp.seed;
  Buffer.contents buf

(* ---- Memory estimates for the scale families. ----

   Closed-form switch/edge counts, and the flat Bigarray footprint a
   built graph will occupy (see {!Tb_graph.Graph.bigarray_bytes}); the
   OCaml-heap overhead on top is O(1). [None] for families whose
   instance shape is search- or randomness-dependent beyond these
   formulas (HyperX). *)
type estimate = { nodes : int; edges : int; flat_bytes : int }

let estimate sp =
  let size = match sp.size with Some n -> n | None -> default_size sp.family in
  let mk nodes edges =
    Some { nodes; edges; flat_bytes = Tb_graph.Graph.bigarray_bytes ~nodes ~edges }
  in
  match sp.family with
  | "fattree" -> mk (5 * size * size / 4) (size * size * size / 2)
  | "dragonfly" ->
    let a = 2 * size in
    let g = (a * size) + 1 in
    mk (g * a) ((g * a * (a - 1) / 2) + (g * (g - 1) / 2))
  | "xpander" ->
    mk (size * (sp.degree + 1)) (size * sp.degree * (sp.degree + 1) / 2)
  | "jellyfish" -> mk size (size * sp.degree / 2)
  | "hypercube" ->
    let n = 1 lsl size in
    mk n (n * size / 2)
  | "slimfly" ->
    let n = 2 * size * size in
    mk n (n * ((3 * size) - 1) / 2 / 2)
  | _ -> None

(* Documented 100k-switch-class instances (ROADMAP "datacenter-scale
   topologies"): the full `make perf-scale` roster. Memory estimates
   via {!estimate}; the fat tree is the heavyweight at ~830 MB of flat
   CSR. *)
let scale_specs =
  [
    ("fattree-100k", "fattree:284"); (* 100,820 switches, 11.45M edges *)
    ("dragonfly-100k", "dragonfly:30"); (* 108,060 routers, 4.81M edges *)
    ("xpander-100k", "xpander:6000,deg=16"); (* 102,000 switches, 816k edges *)
  ]

(* The one family/size -> instance constructor; the CLI, the service
   layer and the bench workloads all build through here. *)
let build_spec sp =
  let fail fmt = Printf.ksprintf failwith fmt in
  let sp =
    match canonical_family sp.family with
    | Some family -> { sp with family }
    | None -> fail "unknown topology family %S" sp.family
  in
  (match validate_spec sp with Ok () -> () | Error m -> fail "%s" m);
  let rng = Rng.make sp.seed in
  let size = match sp.size with Some n -> n | None -> default_size sp.family in
  match sp.family with
  | "hypercube" -> Hypercube.make ~hosts_per_switch:sp.hosts ~dim:size ()
  | "fattree" -> Fattree.make ~k:size ()
  | "bcube" -> Bcube.make ~n:size ~k:1 ()
  | "dcell" -> Dcell.make ~n:size ~k:1 ()
  | "dragonfly" -> Dragonfly.balanced ~h:size ()
  | "flatbf" ->
    Flat_butterfly.make ~hosts_per_switch:sp.hosts ~k:size ~stages:3 ()
  | "hyperx" -> (
    match Hyperx.search ~servers:size ~bisection:0.4 () with
    | Some c -> Hyperx.make c
    | None -> fail "no HyperX configuration for %d servers" size)
  | "jellyfish" ->
    Jellyfish.make ~hosts_per_switch:sp.hosts ~rng ~n:size ~degree:sp.degree ()
  | "longhop" -> Longhop.make ~hosts_per_switch:sp.hosts ~dim:size ()
  | "slimfly" -> Slimfly.make ~hosts_per_switch:sp.hosts ~q:size ()
  | "xpander" ->
    Xpander.make ~hosts_per_switch:sp.hosts ~rng ~lift:size ~degree:sp.degree ()
  | f -> fail "unknown topology family %S" f

(* Size sweep per family, increasing server count. The [rng] only
   matters for Jellyfish. *)
let sweep ?(rng = Rng.default ()) family =
  match family with
  | Bcube ->
    [ Bcube.make ~n:4 ~k:1 (); Bcube.make ~n:6 ~k:1 ();
      Bcube.make ~n:8 ~k:1 (); Bcube.make ~n:4 ~k:2 ();
      Bcube.make ~n:6 ~k:2 (); Bcube.make ~n:8 ~k:2 () ]
  | Dcell ->
    [ Dcell.make ~n:3 ~k:1 (); Dcell.make ~n:4 ~k:1 ();
      Dcell.make ~n:6 ~k:1 (); Dcell.make ~n:3 ~k:2 ();
      Dcell.make ~n:4 ~k:2 () ]
  | Dragonfly ->
    [ Dragonfly.balanced ~h:2 (); Dragonfly.balanced ~h:3 ();
      Dragonfly.balanced ~h:4 () ]
  | Fattree ->
    [ Fattree.make ~k:4 (); Fattree.make ~k:6 (); Fattree.make ~k:8 ();
      Fattree.make ~k:10 (); Fattree.make ~k:12 () ]
  | Flattened_bf ->
    [ Flat_butterfly.make ~hosts_per_switch:4 ~k:2 ~stages:5 ();
      Flat_butterfly.make ~hosts_per_switch:4 ~k:2 ~stages:6 ();
      Flat_butterfly.make ~hosts_per_switch:4 ~k:2 ~stages:7 ();
      Flat_butterfly.make ~k:4 ~stages:4 ();
      Flat_butterfly.make ~hosts_per_switch:4 ~k:2 ~stages:8 () ]
  | Hypercube ->
    List.map
      (fun dim -> Hypercube.make ~hosts_per_switch:2 ~dim ())
      [ 5; 6; 7; 8 ]
  | Hyperx ->
    List.map
      (fun servers -> hyperx_of_servers ~servers ~bisection:0.4)
      [ 64; 128; 256; 512; 750 ]
  | Jellyfish ->
    List.mapi
      (fun i (n, r, h) ->
        Jellyfish.make ~hosts_per_switch:h ~rng:(Rng.split rng i) ~n ~degree:r ())
      [ (16, 6, 4); (32, 8, 4); (64, 8, 4); (128, 10, 4); (224, 10, 4) ]
  | Longhop ->
    List.map
      (fun dim -> Longhop.make ~hosts_per_switch:4 ~dim ())
      [ 5; 6; 7; 8 ]
  | Slimfly ->
    [ Slimfly.make ~hosts_per_switch:3 ~q:5 ();
      Slimfly.make ~hosts_per_switch:3 ~q:13 () ]

(* Mid-size representative used by the per-family TM comparisons. *)
let representative ?(rng = Rng.default ()) family =
  match family with
  | Bcube -> Bcube.make ~n:6 ~k:2 ()
  | Dcell -> Dcell.make ~n:4 ~k:2 ()
  | Dragonfly -> Dragonfly.balanced ~h:3 ()
  | Fattree -> Fattree.make ~k:8 ()
  | Flattened_bf -> Flat_butterfly.make ~hosts_per_switch:4 ~k:2 ~stages:7 ()
  | Hypercube -> Hypercube.make ~hosts_per_switch:2 ~dim:7 ()
  | Hyperx -> hyperx_of_servers ~servers:256 ~bisection:0.4
  | Jellyfish -> Jellyfish.make ~hosts_per_switch:4 ~rng ~n:64 ~degree:8 ()
  | Longhop -> Longhop.make ~hosts_per_switch:4 ~dim:6 ()
  | Slimfly -> Slimfly.make ~hosts_per_switch:3 ~q:5 ()

(* Small instances where brute-force cut enumeration is feasible. *)
let small ?(rng = Rng.default ()) family =
  match family with
  | Bcube -> [ Bcube.make ~n:3 ~k:1 (); Bcube.make ~n:4 ~k:1 () ]
  | Dcell -> [ Dcell.make ~n:2 ~k:1 (); Dcell.make ~n:3 ~k:1 () ]
  | Dragonfly -> [ Dragonfly.balanced ~h:1 (); Dragonfly.balanced ~h:2 () ]
  | Fattree -> [ Fattree.make ~k:4 () ]
  | Flattened_bf ->
    [ Flat_butterfly.make ~k:2 ~stages:4 ();
      Flat_butterfly.make ~k:4 ~stages:3 () ]
  | Hypercube -> [ Hypercube.make ~dim:3 (); Hypercube.make ~dim:4 () ]
  | Hyperx -> [ Hyperx.make { Hyperx.l = 2; s = 4; t = 2 } ]
  | Jellyfish ->
    List.init 3 (fun i ->
        Jellyfish.make ~rng:(Rng.split rng (100 + i)) ~n:14 ~degree:4 ())
  | Longhop -> [ Longhop.make ~dim:4 () ]
  | Slimfly -> [ Slimfly.make ~hosts_per_switch:1 ~q:5 () ]
