(* The checker on fixture/: [open] and bare alias bindings are not
   uses, aliases resolve, [include] uses a whole module, and stale or
   reasonless allowlist entries are rejected. *)

let check allowlist =
  Unused_exports.check ~root:"." ~exports:[ "fixture/lib" ] ~callers:[ "fixture" ] ~allowlist

let strings = Alcotest.(list string)

let dead () =
  let r = check [] in
  Alcotest.(check int) "exported" 9 r.exported;
  Alcotest.check strings "dead"
    [ "Fx.A.unused"; "Fx.A.Nested.unused"; "Fx.Aliased.aliased"; "Fx.Opened.opened" ] r.dead

let allowlist () =
  let r =
    check
      [ "# comment"; ""; "Fx.A.unused  # kept"; "Fx.A.used  # referenced now";
        "Fx.A.gone  # deleted"; "Fx.Opened.opened" ]
  in
  Alcotest.check strings "dead" [ "Fx.A.Nested.unused"; "Fx.Aliased.aliased" ] r.dead;
  Alcotest.check strings "stale"
    [ "Fx.A.used: referenced"; "Fx.A.gone: not exported"; "Fx.Opened.opened: no reason given" ]
    r.stale

let () =
  Alcotest.run "unused_exports"
    [ ("checker", [ Alcotest.test_case "dead exports" `Quick dead;
                    Alcotest.test_case "allowlist" `Quick allowlist ]) ]
