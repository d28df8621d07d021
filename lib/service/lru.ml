(* Hash table over an intrusive doubly-linked recency list with a cyclic
   sentinel: every operation is O(1) and the sentinel removes all
   head/tail special cases. [sent.v = None] marks the sentinel; real
   nodes always carry [Some _]. *)

type 'v node = {
  mutable key : string;
  mutable v : 'v option;
  mutable prev : 'v node;
  mutable next : 'v node;
}

type 'v t = {
  capacity : int;
  tbl : (string, 'v node) Hashtbl.t;
  sent : 'v node; (* sent.next = most recent, sent.prev = least recent *)
  mutable evicted : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  let rec sent = { key = ""; v = None; prev = sent; next = sent } in
  { capacity; tbl = Hashtbl.create (2 * capacity); sent; evicted = 0 }

let length t = Hashtbl.length t.tbl

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.prev <- t.sent;
  n.next <- t.sent.next;
  t.sent.next.prev <- n;
  t.sent.next <- n

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some n ->
    unlink n;
    push_front t n;
    n.v

let add t key v =
  (match Hashtbl.find_opt t.tbl key with
  | Some n ->
    n.v <- Some v;
    unlink n;
    push_front t n
  | None ->
    let n = { key; v = Some v; prev = t.sent; next = t.sent } in
    Hashtbl.replace t.tbl key n;
    push_front t n);
  if Hashtbl.length t.tbl > t.capacity then begin
    let lru = t.sent.prev in
    unlink lru;
    Hashtbl.remove t.tbl lru.key;
    t.evicted <- t.evicted + 1
  end

let evictions t = t.evicted

let keys_by_recency t =
  let rec walk n acc =
    if n == t.sent then List.rev acc else walk n.next (n.key :: acc)
  in
  walk t.sent.next []
