(* Single-source shortest paths on the Bigarray CSR layout: the
   delta-stepping / Dial workhorse for datacenter-scale graphs, plus a
   heap Dijkstra over the same state for small instances.

   Why not the binary heap everywhere: at 100k+ nodes the heap's
   O(m log n) pops and its pointer-free-but-boxed-float storage lose to
   bucketed label-correcting, and the heap fundamentally serializes.
   Delta-stepping settles distances bucket by bucket of width [delta]:
   every tentative distance in [base, base + delta) is relaxed to a
   fixpoint (a bounded Bellman-Ford whose round count is limited by the
   number of arcs a shortest path can take inside one bucket — tiny for
   the low-diameter fabrics this repo studies), then [base] advances to
   the next non-empty bucket. Dial's algorithm is the width-1 special
   case; for unit lengths it degenerates to level-synchronous BFS, which
   is what [dial] implements.

   Lengths are read in CSR slot order: [len.{i}] is the length of the
   arc at slot [i] of [Graph.ba_adj_arc], so a row's lengths are read
   sequentially next to its neighbour ids, and the arc id itself is read
   only when a relaxation improves a node, to record its parent. [run]
   and [dijkstra_dist] take arc-indexed lengths and gather them into
   slot order first.

   Resetting between runs. Every node the last run did not reach holds
   [dist = infinity] and [parent = -1]; a run first restores that on the
   nodes the previous run reached, which it listed in [seen], so a
   relaxation is one [nd < dist.{v}] test (an unreached node compares
   as [infinity], and a banned arc's [infinity] or NaN sum never
   compares below anything) and [reached] is [dist < infinity].

   Determinism. Distances need no ceremony: for a fixed length function
   the shortest-path distances are the unique fixpoint of the Bellman
   equations over IEEE float (+, <), so any label-correcting schedule —
   heap order, bucket order, any domain count — lands on bit-identical
   distances. Parent arcs DO depend on relaxation order, so the bucket
   loop is a frozen scan: each inner round relaxes the frontier's arcs
   from the distances its nodes were drained with (frozen for the whole
   round), applying the candidates (v, arc, dist) sequentially in a
   fixed order (frontier order x CSR arc order), generated and applied
   in one fused pass. The schedule depends only on the graph, the
   lengths and the source, never on the domain count.

   Bucket invariants (the ones the code below maintains):
   - Every live (unsettled, tentative-distance) node is queued in the
     bucket of its current distance; re-improvements re-queue it and
     stale queue entries are skipped via [processed] (the distance the
     node last entered a frontier with — if it still equals [dist] the
     entry is a duplicate, if not the node re-entered a bucket).
   - While bucket [base, base + delta) settles, no tentative distance
     below [base] can appear (relaxations out of this bucket produce
     nd = dist u + w >= base since w >= 0), so settled buckets stay
     settled and an early exit once [dist target <= base] is sound.
   - All live distances lie within [base, base + delta + max_len), so a
     circular array of ceil(max_len/delta) + 3 slots distinguishes every
     live bucket (the +3 absorbs the current slot and rounding). [delta]
     is clamped so the slot count stays <= 1027. *)

module A1 = Bigarray.Array1

type state = {
  nodes : int;
  dist : Graph.floats;
  parent : Graph.ints; (* parent arc, -1 at source/unreached *)
  (* The nodes the current run has reached, [seen_count] of them, in
     first-reach order: the next run resets exactly these. *)
  seen : Graph.ints;
  mutable seen_count : int;
  mutable stamp : int; (* run counter, the current mark in [want] *)
  (* Heap Dijkstra's binary min-heap over (priority, node), see below. *)
  mutable heap_prio : float array;
  mutable heap_node : int array;
  mutable heap_size : int;
  (* [stamp] on the destinations [dijkstra] still waits for. *)
  want : Graph.ints;
  (* distance a node last entered a frontier with; NaN right after its
     first visit of a run (NaN <> d for all d, forcing a first scan). *)
  processed : Graph.floats;
  mutable bucket : int array array; (* circular: slot -> queued nodes *)
  mutable bucket_len : int array;
  mutable frontier : int array;
  mutable slot_len : Graph.floats; (* [run]'s lengths, gathered by slot *)
}

let create_state n =
  let dist = Graph.make_floats n in
  A1.fill dist infinity;
  let parent = Graph.make_ints n in
  A1.fill parent (-1);
  let processed = Graph.make_floats n in
  A1.fill processed nan;
  let want = Graph.make_ints n in
  A1.fill want (-1);
  let capacity = max 16 n in
  {
    nodes = n;
    dist;
    parent;
    seen = Graph.make_ints n;
    seen_count = 0;
    stamp = 0;
    heap_prio = Array.make capacity 0.0;
    heap_node = Array.make capacity 0;
    heap_size = 0;
    want;
    processed;
    bucket = [||];
    bucket_len = [||];
    frontier = Array.make 16 0;
    slot_len = Graph.make_floats 0;
  }

let reached st v = A1.get st.dist v < infinity
let distance st v = A1.get st.dist v

let distances_into st ~targets (out : Graph.floats) =
  if A1.dim out < st.nodes then invalid_arg "Sssp.distances_into: output too short";
  let dist = st.dist in
  for i = 0 to Array.length targets - 1 do
    let v = targets.(i) in
    A1.set out v (A1.get dist v)
  done

let weighted_distance_sum st ~targets ~weights =
  if Array.length weights < Array.length targets then
    invalid_arg "Sssp.weighted_distance_sum: fewer weights than targets";
  let dist = st.dist in
  let acc = ref 0.0 in
  for i = 0 to Array.length targets - 1 do
    acc := !acc +. (Array.unsafe_get weights i *. A1.get dist targets.(i))
  done;
  !acc

let parent_arc st v = A1.get st.parent v

let path_arcs g st v =
  if not (reached st v) then None
  else begin
    let rec collect v acc =
      match A1.get st.parent v with
      | -1 -> acc
      | arc -> collect (Graph.arc_src g arc) (arc :: acc)
    in
    Some (collect v [])
  end

let check_run name g st src =
  let n = Graph.num_nodes g in
  if st.nodes <> n then invalid_arg (name ^ ": state size");
  if src < 0 || src >= n then invalid_arg (name ^ ": source out of range")

let check_len name g (len : Graph.floats) =
  if A1.dim len < Graph.num_arcs g then
    invalid_arg (name ^ ": length array too short")

let check_target name st = function
  | Some t when t < 0 || t >= st.nodes -> invalid_arg (name ^ ": target out of range")
  | Some t -> t
  | None -> -1

(* Restore [dist = infinity] and [parent = -1] on the previous run's
   nodes, then reach [src]. *)
let start_run st src =
  let dist = st.dist and parent = st.parent and seen = st.seen in
  for i = 0 to st.seen_count - 1 do
    let v = A1.unsafe_get seen i in
    A1.unsafe_set dist v infinity;
    A1.unsafe_set parent v (-1)
  done;
  st.stamp <- st.stamp + 1;
  A1.set dist src 0.0;
  A1.set st.processed src nan;
  A1.set seen 0 src;
  st.seen_count <- 1

(* {2 Heap Dijkstra on Bigarray state}

   The heap is a binary min-heap over (float priority, node) with lazy
   deletion: a node is pushed on every improvement and stale pops are
   skipped, so no decrease-key is needed. It lives in the state, next to
   the distances its keys are read from, so a push or pop is inlined
   into the relaxation loop and no priority crosses a call (a float
   argument of a cross-module call is boxed under [-opaque]).

   Sift-up and sift-down use hole insertion: the moving element is held
   in registers while parents (resp. smaller children) slide into the
   hole, one write per level instead of the three a swap costs. The
   sift-down picks the smaller child without a branch: a pop writes
   [infinity] into the slot it vacates, so the right child of the last
   parent compares as never smaller and needs no bounds test. Indexing
   inside the sift loops is unsafe; the bounds are maintained by
   [heap_size] and the doubling in [heap_grow]. *)

let heap_grow st =
  let c = Array.length st.heap_prio in
  let prio = Array.make (2 * c) 0.0 and node = Array.make (2 * c) 0 in
  Array.blit st.heap_prio 0 prio 0 st.heap_size;
  Array.blit st.heap_node 0 node 0 st.heap_size;
  st.heap_prio <- prio;
  st.heap_node <- node

(* Push [v] with priority [dist.{v}] as of now: bubble the hole from the
   end toward the root, sliding larger parents down into it. *)
let[@inline] heap_push st (dist : Graph.floats) v =
  if st.heap_size = Array.length st.heap_prio then heap_grow st;
  let prio = st.heap_prio and node = st.heap_node in
  let p = A1.unsafe_get dist v in
  let i = ref st.heap_size in
  st.heap_size <- st.heap_size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    let pp = Array.unsafe_get prio parent in
    if pp > p then begin
      Array.unsafe_set prio !i pp;
      Array.unsafe_set node !i (Array.unsafe_get node parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set prio !i p;
  Array.unsafe_set node !i v

(* Remove the minimum of a non-empty heap and return its node if the
   entry is current (its priority is [<= dist.{u}]: distances only
   decrease, and every decrease pushes), or [-1] if it is stale. The
   sift-down pushes the hole from the root toward the leaves along the
   smaller child, then drops the former last element into it. *)
let[@inline] heap_pop_current st (dist : Graph.floats) =
  let prio = st.heap_prio and node = st.heap_node in
  let u = Array.unsafe_get node 0 in
  let current = Array.unsafe_get prio 0 <= A1.unsafe_get dist u in
  let last = st.heap_size - 1 in
  st.heap_size <- last;
  if last > 0 then begin
    let p = Array.unsafe_get prio last in
    let x = Array.unsafe_get node last in
    Array.unsafe_set prio last infinity;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let c =
          l
          + Bool.to_int
              (Array.unsafe_get prio (l + 1) < Array.unsafe_get prio l)
        in
        let cp = Array.unsafe_get prio c in
        if cp < p then begin
          Array.unsafe_set prio !i cp;
          Array.unsafe_set node !i (Array.unsafe_get node c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set prio !i p;
    Array.unsafe_set node !i x
  end;
  if current then u else -1

(* Mark [dsts] as wanted in this run and return how many distinct nodes
   they name. *)
let mark_dsts name st dsts =
  let want = st.want and stamp = st.stamp in
  let count = ref 0 in
  for i = 0 to Array.length dsts - 1 do
    let d = Array.unsafe_get dsts i in
    if d < 0 || d >= st.nodes then invalid_arg (name ^ ": destination out of range");
    if A1.unsafe_get want d <> stamp then begin
      A1.unsafe_set want d stamp;
      incr count
    end
  done;
  !count

(* The loop indexes unsafely: indices are node ids or CSR positions
   established by Graph construction, and [len] is length-checked on
   entry. [seen] has room for every node: a node is listed when its
   distance first drops below [infinity], once per run. A node's parent
   is the first arc that strictly improves it in heap-pop x CSR order;
   callers that build paths from parent arcs (column-generation
   pricing, Llskr, the cut rung's hop routing) depend on that
   tie-breaking. A current entry's key equals [dist u]
   at pop time, so [d] is re-read from [dist] bit for bit.

   Early exit. A settled node's distance and parent arc are final, and
   so is every node on its parent path (each was settled before it), so
   stopping once the last wanted destination is settled leaves exactly
   what the full tree holds there. The run stops before relaxing that
   destination's arcs; with no destinations it settles every reachable
   node. *)
let dijkstra ?(dsts = [||]) g ~(len : Graph.floats) ~src st =
  check_run "Sssp.dijkstra" g st src;
  check_len "Sssp.dijkstra" g len;
  let row = Graph.ba_adj_start g in
  let nbr = Graph.ba_adj_node g in
  let arc_of = Graph.ba_adj_arc g in
  let dist = st.dist and parent = st.parent and seen = st.seen in
  let want = st.want in
  start_run st src;
  let stamp = st.stamp in
  let nseen = ref 1 in
  (* Destinations not yet settled. With none listed it starts below
     zero and never reaches it, so the whole tree is built. *)
  let waiting = ref (mark_dsts "Sssp.dijkstra" st dsts) in
  if !waiting = 0 then waiting := -1;
  st.heap_size <- 0;
  heap_push st dist src;
  while !waiting <> 0 && st.heap_size > 0 do
    let u = heap_pop_current st dist in
    if u >= 0 then begin
      let d = A1.unsafe_get dist u in
      if A1.unsafe_get want u = stamp then begin
        A1.unsafe_set want u (-1);
        decr waiting
      end;
      if !waiting <> 0 then begin
        let hi = A1.unsafe_get row (u + 1) in
        for i = A1.unsafe_get row u to hi - 1 do
          let v = A1.unsafe_get nbr i in
          let nd = d +. A1.unsafe_get len i in
          let dv = A1.unsafe_get dist v in
          if nd < dv then begin
            if dv = infinity then begin
              A1.unsafe_set seen !nseen v;
              incr nseen
            end;
            A1.unsafe_set dist v nd;
            A1.unsafe_set parent v (A1.unsafe_get arc_of i);
            heap_push st dist v
          end
        done
      end
    end
  done;
  st.seen_count <- !nseen

(* {2 Dial / unit lengths}

   Dial's bucket array with width-1 buckets and unit lengths is exactly
   level-synchronous BFS: the queue IS the bucket sequence. Distances
   are hop counts (exact small-integer floats), parents are the first
   discovery in queue x CSR order — deterministic, and bit-identical to
   what heap Dijkstra computes for distances. *)
let dial ?target g ~src st =
  check_run "Sssp.dial" g st src;
  let target = check_target "Sssp.dial" st target in
  let row = Graph.ba_adj_start g in
  let nbr = Graph.ba_adj_node g in
  let arc_of = Graph.ba_adj_arc g in
  let dist = st.dist and parent = st.parent in
  (* The BFS queue is the [seen] list itself: it holds every node
     reached so far, in first-reach order, the source first. *)
  start_run st src;
  let q = st.seen in
  let head = ref 0 and tail = ref 1 in
  let finished = ref false in
  while (not !finished) && !head < !tail do
    let u = A1.unsafe_get q !head in
    incr head;
    if u = target then finished := true
    else begin
      let du = A1.unsafe_get dist u in
      let hi = A1.unsafe_get row (u + 1) in
      for i = A1.unsafe_get row u to hi - 1 do
        let v = A1.unsafe_get nbr i in
        if A1.unsafe_get dist v = infinity then begin
          A1.unsafe_set dist v (du +. 1.0);
          A1.unsafe_set parent v (A1.unsafe_get arc_of i);
          A1.unsafe_set q !tail v;
          incr tail
        end
      done
    end
  done;
  st.seen_count <- !tail

(* {2 Delta-stepping} *)

(* Hard cap on circular-slot count; [delta] is clamped up to respect it.
   1024 live buckets is plenty of distance resolution: a bucket only
   costs extra inner rounds when a shortest path crosses it several
   times, and the clamp only engages when the length function spans >3
   orders of magnitude. *)
let max_slots = 1024

let ensure_frontier st n = if Array.length st.frontier < n then st.frontier <- Array.make (max 16 n) 0

let ensure_buckets st b =
  if Array.length st.bucket < b then begin
    let old = Array.length st.bucket in
    (* New slots start empty and get storage on their first push: a
       length function with a wide range sizes up to [max_slots] slots,
       of which a run typically touches a few. *)
    let bucket = Array.make b [||] and blen = Array.make b 0 in
    Array.blit st.bucket 0 bucket 0 old;
    Array.blit st.bucket_len 0 blen 0 old;
    st.bucket <- bucket;
    st.bucket_len <- blen
  end;
  Array.fill st.bucket_len 0 b 0

let delta_stepping ?target ?delta ?max_len g
    ~(len : Graph.floats) ~src st =
  check_run "Sssp.delta_stepping" g st src;
  check_len "Sssp.delta_stepping" g len;
  (match delta with
  | Some d when not (d > 0.0 && d < infinity) ->
      invalid_arg "Sssp.delta_stepping: delta must be positive and finite"
  | _ -> ());
  let target = check_target "Sssp.delta_stepping" st target in
  let num_arcs = Graph.num_arcs g in
  let row = Graph.ba_adj_start g in
  let nbr = Graph.ba_adj_node g in
  let arc_of = Graph.ba_adj_arc g in
  let dist = st.dist
  and parent = st.parent
  and seen = st.seen
  and processed = st.processed in
  (* Longest finite arc bounds the live-distance window. *)
  let maxl =
    match max_len with
    | Some m when m > 0.0 && m < infinity -> m
    | _ ->
        let m = ref 0.0 in
        for a = 0 to num_arcs - 1 do
          let w = A1.unsafe_get len a in
          if w < infinity && w > !m then m := w
        done;
        !m
  in
  let delta =
    let requested = match delta with Some d -> d | None -> maxl /. 8.0 in
    let floor_ = maxl /. float_of_int (max_slots - 4) in
    let d = if requested > floor_ then requested else floor_ in
    if d > 0.0 then d else 1.0
  in
  let slots = min max_slots (int_of_float (maxl /. delta) + 3) in
  ensure_buckets st slots;
  let bucket_len = st.bucket_len in
  let[@inline] push_bucket slot u =
    let arr = Array.unsafe_get st.bucket slot in
    let l = Array.unsafe_get bucket_len slot in
    let arr =
      if l = Array.length arr then begin
        let arr' = Array.make (max 16 (2 * l)) 0 in
        Array.blit arr 0 arr' 0 l;
        st.bucket.(slot) <- arr';
        arr'
      end
      else arr
    in
    Array.unsafe_set arr l u;
    Array.unsafe_set bucket_len slot (l + 1)
  in
  start_run st src;
  (* Lower edge of the current bucket, in an unboxed cell: the closures
     below capture it, and a captured [float ref] boxes on every write. *)
  let base = [| 0.0 |]
  and base_slot = ref 0
  and live = ref 1 in
  push_bucket 0 src;
  (* Slot offset of distance [d] from the current base. The clamp
     absorbs ulp-level rounding at the window edges; a misbucketed
     entry is merely drained early and re-queued, never lost. *)
  let[@inline] slot_of d =
    let off = int_of_float ((d -. Array.unsafe_get base 0) /. delta) in
    let off = if off < 0 then 0 else if off >= slots then slots - 1 else off in
    (!base_slot + off) mod slots
  in
  (* Apply one candidate (v, slot i, nd); returns unit. The check
     against the (no longer frozen) dist makes earlier candidates in
     this same apply pass win ties and stale candidates no-ops; a first
     reach lists [v] in [seen] and clears its [processed]. Inlined (as
     is [slot_of]) so [nd] is never boxed. *)
  let[@inline] apply v i nd =
    let dv = A1.unsafe_get dist v in
    if nd < dv then begin
      if dv = infinity then begin
        A1.unsafe_set processed v nan;
        A1.unsafe_set seen st.seen_count v;
        st.seen_count <- st.seen_count + 1
      end;
      A1.unsafe_set dist v nd;
      A1.unsafe_set parent v (A1.unsafe_get arc_of i);
      push_bucket (slot_of nd) v;
      incr live
    end
  in
  let finished = ref false in
  while (not !finished) && !live > 0 do
    (* Advance to the next non-empty slot. *)
    let k = ref 0 in
    while !k < slots && bucket_len.((!base_slot + !k) mod slots) = 0 do
      incr k
    done;
    if !k = slots then live := 0 (* only stale entries remained *)
    else begin
      let b0 = Array.unsafe_get base 0 +. (float_of_int !k *. delta) in
      Array.unsafe_set base 0 b0;
      base_slot := (!base_slot + !k) mod slots;
      if target >= 0 && A1.unsafe_get dist target <= b0 then finished := true
      else begin
        let hi_edge = b0 +. delta in
        (* Settle the bucket: frozen-scan rounds to a fixpoint. *)
        let round = ref true in
        while !round do
          (* Drain the current slot into the frontier, re-queueing
             entries whose distance improved out of this bucket. *)
          let bl = bucket_len.(!base_slot) in
          bucket_len.(!base_slot) <- 0;
          live := !live - bl;
          ensure_frontier st bl;
          let frontier = st.frontier in
          let flen = ref 0 in
          let slot_arr = st.bucket.(!base_slot) in
          for i = 0 to bl - 1 do
            let u = Array.unsafe_get slot_arr i in
            let du = A1.unsafe_get dist u in
            if A1.unsafe_get processed u <> du then
              if du < hi_edge then begin
                A1.unsafe_set processed u du;
                Array.unsafe_set frontier !flen u;
                incr flen
              end
              else begin
                (* Belongs to a later bucket; re-queue strictly ahead.
                   [slot_of] truncates, and when [base +. delta] rounds
                   down a du >= hi_edge can still map to offset 0 —
                   pushing it back into the slot being drained, which
                   the outer loop would then spin on forever. Forcing
                   offset >= 1 keeps every re-queue ahead of [base], so
                   each drain makes progress. *)
                let off = int_of_float ((du -. b0) /. delta) in
                let off = if off < 1 then 1 else if off >= slots then slots - 1 else off in
                push_bucket ((!base_slot + off) mod slots) u;
                incr live
              end
          done;
          if !flen = 0 then round := false
          else begin
            (* One fused pass: the frozen distance of [u] is
               [processed u], the distance it was drained with, and
               [apply]'s check against live distances rejects every
               candidate that would not improve them. *)
            for j = 0 to !flen - 1 do
              let u = Array.unsafe_get frontier j in
              let du = A1.unsafe_get processed u in
              let hi_row = A1.unsafe_get row (u + 1) in
              for i = A1.unsafe_get row u to hi_row - 1 do
                apply (A1.unsafe_get nbr i) i (du +. A1.unsafe_get len i)
              done
            done
          end
        done
      end
    end
  done;
  (* Leave no stale queue entries for the next run: [start_run] resets
     distances, but not bucket contents. *)
  Array.fill bucket_len 0 slots 0

(* Arc count at which [run] switches from the heap to buckets: below
   it the heap's constants win, above it delta-stepping's cache-friendly
   frontiers do. Shared with the flow solvers so "big instance" means
   one thing everywhere. *)
let auto_delta_arcs = 32768

(* [len] (arc-indexed) gathered into the state's slot-ordered scratch. *)
let gather_slots name g st (len : Graph.floats) =
  check_len name g len;
  let num_arcs = Graph.num_arcs g in
  if A1.dim st.slot_len < num_arcs then st.slot_len <- Graph.make_floats num_arcs;
  let arc_of = Graph.ba_adj_arc g and sl = st.slot_len in
  for i = 0 to num_arcs - 1 do
    A1.unsafe_set sl i (A1.unsafe_get len (A1.unsafe_get arc_of i))
  done;
  sl

let run ?max_len ?parallel:_ g ~len ~src st =
  let len = gather_slots "Sssp.run" g st len in
  if Graph.num_arcs g >= auto_delta_arcs then
    delta_stepping ?max_len g ~len ~src st
  else dijkstra g ~len ~src st

(* {2 Closure/convenience wrappers} *)

let dijkstra_dist g ~len ~src =
  let st = create_state (Graph.num_nodes g) in
  let num_arcs = Graph.num_arcs g in
  let slot = Graph.ba_arc_slot g in
  let l = Graph.make_floats num_arcs in
  for a = 0 to num_arcs - 1 do
    A1.set l (A1.get slot a) (len a)
  done;
  dijkstra g ~len:l ~src st;
  Array.init (Graph.num_nodes g) (fun v -> distance st v)
