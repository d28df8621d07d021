module Json = Tb_obs.Json

(* Resumable sweep runner.

   A sweep is an ordered list of cells, each a key plus a thunk
   producing a JSON result. Results are returned in list order and —
   when a checkpoint is attached — recorded after every cell, with
   already-completed cells replayed from the checkpoint instead of
   recomputed. Because replayed and computed cells are merged back in
   list order, a killed-and-resumed run emits output identical to an
   uninterrupted one.

   SIGTERM/SIGINT are handled cooperatively: {!install_graceful_stop}
   flips a flag, and the runner stops *between* cells (the checkpoint is
   only ever written between cells, so the store stays consistent). *)

type cell = { key : string; run : unit -> Json.t }

exception Interrupted of string
(* payload: the key of the first cell not run *)

let stop_requested = ref false

let install_graceful_stop () =
  let handler = Sys.Signal_handle (fun _ -> stop_requested := true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler

let run ?checkpoint ?extra ?(on_cell = fun _ _ -> ()) cells =
  List.map
    (fun c ->
      if !stop_requested then raise (Interrupted c.key);
      let result =
        match Option.bind checkpoint (fun cp -> Checkpoint.find cp c.key) with
        | Some cached -> cached
        | None ->
          let v = c.run () in
          Option.iter
            (fun cp ->
              (* Carry-along state (warm caches) rides in the cell's own
                 record line: a kill between cells then leaves cell
                 results and warm state consistent. *)
              Checkpoint.record ?extra:(Option.map (fun f -> f ()) extra) cp
                c.key v)
            checkpoint;
          v
      in
      on_cell c.key result;
      (c.key, result))
    cells
