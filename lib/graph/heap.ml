(* Binary min-heap over (float priority, int payload), the hot data
   structure inside Dijkstra. Lazy deletion: stale entries are skipped by
   the caller via a best-known-distance check, so no decrease-key is
   needed.

   Sift-up and sift-down use hole insertion: the moving element is held
   in registers while parents (resp. smaller children) slide into the
   hole, one write per level instead of the three a swap costs. Indexing
   inside the sift loops is unsafe; the bounds are maintained by [size]
   and the power-of-two growth. *)

type keys = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable prio : float array;
  mutable data : int array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  { prio = Array.make capacity 0.0; data = Array.make capacity 0; size = 0 }

let is_empty h = h.size = 0
let size h = h.size

let clear h = h.size <- 0

let grow h =
  let c = Array.length h.prio in
  let prio = Array.make (2 * c) 0.0 and data = Array.make (2 * c) 0 in
  Array.blit h.prio 0 prio 0 h.size;
  Array.blit h.data 0 data 0 h.size;
  h.prio <- prio;
  h.data <- data

(* Sift up: bubble the hole from the end toward the root, sliding
   larger parents down into it, then drop (p, x) in once. Inlined into
   both push entry points so [p] stays unboxed in [push_keyed]. *)
let[@inline] sift_up h p x =
  if h.size = Array.length h.prio then grow h;
  let prio = h.prio and data = h.data in
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    let pp = Array.unsafe_get prio parent in
    if pp > p then begin
      Array.unsafe_set prio !i pp;
      Array.unsafe_set data !i (Array.unsafe_get data parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set data !i x

let push h p x = sift_up h p x

let top_prio h =
  if h.size = 0 then invalid_arg "Heap.top_prio: empty";
  h.prio.(0)

let top_data h =
  if h.size = 0 then invalid_arg "Heap.top_data: empty";
  h.data.(0)

(* Remove the minimum without returning it: with [top_prio]/[top_data]
   this gives Dijkstra an allocation-free pop (no boxed float, no
   result tuple). *)
let drop h =
  if h.size = 0 then invalid_arg "Heap.drop: empty";
  let prio = h.prio and data = h.data in
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    (* Sift down: push the hole from the root toward the leaves along
       the smaller child, then drop the former last element into it. *)
    let p = Array.unsafe_get prio last in
    let x = Array.unsafe_get data last in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && Array.unsafe_get prio r < Array.unsafe_get prio l
          then r
          else l
        in
        let cp = Array.unsafe_get prio c in
        if cp < p then begin
          Array.unsafe_set prio !i cp;
          Array.unsafe_set data !i (Array.unsafe_get data c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set prio !i p;
    Array.unsafe_set data !i x
  end

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty";
  let top_p = h.prio.(0) and top_d = h.data.(0) in
  drop h;
  (top_p, top_d)

(* {2 Key-indexed entry points}

   Priorities are read from (and checked against) the caller's key
   array inside this module, so no float crosses the module boundary:
   under [-opaque] (or without flambda) a float argument or result of a
   cross-module call is boxed, which in Dijkstra means one allocation
   per push and per pop. *)

let push_keyed h (keys : keys) v = sift_up h (Bigarray.Array1.get keys v) v

let pop_current h (keys : keys) =
  if h.size = 0 then invalid_arg "Heap.pop_current: empty";
  let x = Array.unsafe_get h.data 0 in
  let current = Array.unsafe_get h.prio 0 <= Bigarray.Array1.get keys x in
  drop h;
  if current then x else -1
