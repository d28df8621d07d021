(* make unused-exports: run from the repository root after
   [dune build @check]. Exits 1 on a dead export or a stale allowlist
   entry (tools/unused_exports/allowlist, one [Lib.Module.value  # reason]
   per line). *)

let () =
  let allowlist = In_channel.with_open_text "tools/unused_exports/allowlist" In_channel.input_lines in
  let check callers =
    Unused_exports.check ~root:"_build/default" ~exports:[ "lib" ] ~callers ~allowlist
  in
  let r = check [ "lib"; "bin"; "bench"; "benchsuite"; "examples"; "test" ] in
  let no_test = check [ "lib"; "bin"; "bench"; "benchsuite"; "examples" ] in
  List.iter (Printf.printf "unused export: %s\n") r.dead;
  List.iter (Printf.printf "stale allowlist entry: %s\n") r.stale;
  Printf.printf "unused-exports: %d exported values, %d unused, %d referenced only from test/\n"
    r.exported (List.length r.dead) (List.length no_test.dead - List.length r.dead);
  if r.dead <> [] || r.stale <> [] then exit 1
