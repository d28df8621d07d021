(* In-memory spans around the suite's calls into each layer.

   Every span records its name, start, end, parent, the op it belongs
   to, the [Gc.allocated_bytes] delta over its extent, and the deltas of
   a fixed set of probes (readings of the program's own timers), so that
   work a program timer counts is charged to the span it ran in. While
   enabled,
   spans are also emitted through [Tb_obs.Trace.span] under a [bench/]
   prefix, so a traced run can be written out as a Chrome trace next to
   the program's own spans. Disabled, [record] just runs its thunk. *)

type span = {
  id : int;
  parent : int;  (** -1 for an op's root span *)
  op : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
  alloc : float;  (** bytes allocated while the span was open *)
  probed : float array;  (** per-probe delta while the span was open *)
}

type t = {
  mutable enabled : bool;
  mutable op : int;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;  (** newest first *)
  probes : (unit -> float) array;
}

let create ?(probes = [||]) () =
  { enabled = false; op = 0; next_id = 0; stack = []; spans = []; probes }

let read_probes t = Array.map (fun p -> p ()) t.probes

let record t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let p0 = read_probes t in
    let a0 = Gc.allocated_bytes () in
    let t0 = Tb_obs.Clock.now_ns () in
    let finish () =
      let stop_ns = Tb_obs.Clock.now_ns () in
      let alloc = Gc.allocated_bytes () -. a0 in
      let probed = Array.map2 ( -. ) (read_probes t) p0 in
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; parent; op = t.op; name; start_ns = t0; stop_ns; alloc; probed }
        :: t.spans
    in
    Fun.protect ~finally:finish (fun () ->
        Tb_obs.Trace.span ~args:[ ("op", Tb_obs.Json.Int t.op) ] ("bench/" ^ name) f)
  end

let duration_ns s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

type total = {
  self_ns : float;
  self_alloc : float;
  probed : float array;  (** summed over the spans, children included *)
}

(* Per span name: the summed self time (duration minus the part its
   direct children cover), self allocation and probe deltas, sorted by
   name. *)
let totals spans =
  let child_ns = Hashtbl.create 64 and child_alloc = Hashtbl.create 64 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        bump child_ns s.parent (duration_ns s);
        bump child_alloc s.parent s.alloc
      end)
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self_ns =
        duration_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.id)
      in
      let self_alloc =
        s.alloc -. Option.value ~default:0.0 (Hashtbl.find_opt child_alloc s.id)
      in
      Hashtbl.replace acc s.name
        (match Hashtbl.find_opt acc s.name with
        | None -> { self_ns; self_alloc; probed = s.probed }
        | Some prev ->
          {
            self_ns = prev.self_ns +. self_ns;
            self_alloc = prev.self_alloc +. self_alloc;
            probed = Array.map2 ( +. ) prev.probed s.probed;
          }))
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq acc))
