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

   Determinism. Distances need no ceremony: for a fixed length function
   the shortest-path distances are the unique fixpoint of the Bellman
   equations over IEEE float (+, <), so any label-correcting schedule —
   heap order, bucket order, any domain count — lands on bit-identical
   distances. Parent arcs DO depend on relaxation order, so the bucket
   loop is a frozen scan: each inner round first collects candidate
   relaxations (v, arc, dist) against a frozen distance array, then
   applies them sequentially in a fixed order (frontier order x CSR arc
   order). Candidate generation is side-effect-free, so it can fan out
   across domains in fixed-size chunks; the sequential apply phase makes
   the result bit-identical for any domain count — including domains=1,
   which runs the exact same generate-then-apply schedule. This is the
   same guarantee the PR 3 parallel certification established, pushed
   down into the traversal itself.

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

(* Per-chunk candidate buffer for the frozen scan. *)
type buf = {
  mutable cand_node : int array;
  mutable cand_arc : int array;
  mutable cand_dist : float array;
  mutable cand_len : int;
}

type state = {
  nodes : int;
  dist : Graph.floats;
  parent : Graph.ints; (* parent arc, -1 at source/unreached *)
  visit : Graph.ints; (* stamp marks, avoids O(n) clears *)
  mutable stamp : int;
  heap : Heap.t;
  (* distance a node last entered a frontier with; NaN right after its
     first visit of a run (NaN <> d for all d, forcing a first scan). *)
  processed : Graph.floats;
  mutable bucket : int array array; (* circular: slot -> queued nodes *)
  mutable bucket_len : int array;
  mutable frontier : int array;
  mutable bufs : buf array; (* one per frozen-scan chunk *)
  mutable queue : int array; (* dial/BFS ring *)
}

let create_state n =
  let dist = Graph.make_floats n in
  A1.fill dist infinity;
  let parent = Graph.make_ints n in
  A1.fill parent (-1);
  let visit = Graph.make_ints n in
  A1.fill visit (-1);
  let processed = Graph.make_floats n in
  A1.fill processed nan;
  {
    nodes = n;
    dist;
    parent;
    visit;
    stamp = 0;
    heap = Heap.create ~capacity:(max 16 n) ();
    processed;
    bucket = [||];
    bucket_len = [||];
    frontier = Array.make 16 0;
    bufs = [||];
    queue = [||];
  }

let reached st v = A1.get st.visit v = st.stamp
let distance st v = if reached st v then A1.get st.dist v else infinity

let distances_into st (out : Graph.floats) =
  if A1.dim out < st.nodes then invalid_arg "Sssp.distances_into: output too short";
  let dist = st.dist and visit = st.visit and stamp = st.stamp in
  for v = 0 to st.nodes - 1 do
    A1.unsafe_set out v
      (if A1.unsafe_get visit v = stamp then A1.unsafe_get dist v else infinity)
  done

let weighted_distance_sum st ~targets ~weights =
  if Array.length weights < Array.length targets then
    invalid_arg "Sssp.weighted_distance_sum: fewer weights than targets";
  let dist = st.dist and visit = st.visit and stamp = st.stamp in
  let acc = ref 0.0 in
  for i = 0 to Array.length targets - 1 do
    let t = targets.(i) in
    let d = if A1.get visit t = stamp then A1.get dist t else infinity in
    acc := !acc +. (Array.unsafe_get weights i *. d)
  done;
  !acc
let parent_arc st v = if reached st v then A1.get st.parent v else -1

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

let start_run st src =
  st.stamp <- st.stamp + 1;
  A1.set st.dist src 0.0;
  A1.set st.parent src (-1);
  A1.set st.visit src st.stamp;
  A1.set st.processed src nan

(* {2 Heap Dijkstra on Bigarray state}

   A port of [Shortest_path.dijkstra_arrays] onto the flat state, so the
   flow solvers carry a single scratch-state type whichever traversal
   the instance size selects. Same lazy-deletion discipline, same
   unsafe-indexing justification: indices are node ids or CSR positions
   established by Graph construction, and [len] is length-checked on
   entry.

   Priorities never cross into [Heap]: the key pushed for [v] is read
   from [dist] inside the heap ([push_keyed]), and a pop reports only
   whether the entry is current ([pop_current]). A current entry's key
   equals [dist u] at pop time (distances only decrease, and every
   decrease pushes), so [d] is re-read from [dist] bit for bit. *)
let dijkstra ?target g ~(len : Graph.floats) ~src st =
  check_run "Sssp.dijkstra" g st src;
  check_len "Sssp.dijkstra" g len;
  let row = Graph.ba_adj_start g in
  let nbr = Graph.ba_adj_node g in
  let arc_of = Graph.ba_adj_arc g in
  let dist = st.dist and parent = st.parent and visit = st.visit in
  start_run st src;
  let stamp = st.stamp in
  let heap = st.heap in
  Heap.clear heap;
  Heap.push_keyed heap dist src;
  let target = match target with Some t -> t | None -> -1 in
  let finished = ref false in
  while (not !finished) && not (Heap.is_empty heap) do
    let u = Heap.pop_current heap dist in
    if u >= 0 then begin
      let d = A1.unsafe_get dist u in
      if u = target then finished := true
      else begin
        let hi = A1.unsafe_get row (u + 1) in
        for i = A1.unsafe_get row u to hi - 1 do
          let v = A1.unsafe_get nbr i in
          let arc = A1.unsafe_get arc_of i in
          let w = A1.unsafe_get len arc in
          if w < infinity then begin
            let nd = d +. w in
            if
              not
                (A1.unsafe_get visit v = stamp && A1.unsafe_get dist v <= nd)
            then begin
              A1.unsafe_set dist v nd;
              A1.unsafe_set parent v arc;
              A1.unsafe_set visit v stamp;
              Heap.push_keyed heap dist v
            end
          end
        done
      end
    end
  done

(* {2 Dial / unit lengths}

   Dial's bucket array with width-1 buckets and unit lengths is exactly
   level-synchronous BFS: the queue IS the bucket sequence. Distances
   are hop counts (exact small-integer floats), parents are the first
   discovery in queue x CSR order — deterministic, and bit-identical to
   what heap Dijkstra computes for distances. *)
let dial ?target g ~src st =
  check_run "Sssp.dial" g st src;
  let row = Graph.ba_adj_start g in
  let nbr = Graph.ba_adj_node g in
  let arc_of = Graph.ba_adj_arc g in
  let dist = st.dist and parent = st.parent and visit = st.visit in
  start_run st src;
  let stamp = st.stamp in
  if Array.length st.queue < st.nodes then st.queue <- Array.make (max 16 st.nodes) 0;
  let q = st.queue in
  q.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  let target = match target with Some t -> t | None -> -1 in
  let finished = ref false in
  while (not !finished) && !head < !tail do
    let u = Array.unsafe_get q !head in
    incr head;
    if u = target then finished := true
    else begin
      let du = A1.unsafe_get dist u in
      let hi = A1.unsafe_get row (u + 1) in
      for i = A1.unsafe_get row u to hi - 1 do
        let v = A1.unsafe_get nbr i in
        if A1.unsafe_get visit v <> stamp then begin
          A1.unsafe_set visit v stamp;
          A1.unsafe_set dist v (du +. 1.0);
          A1.unsafe_set parent v (A1.unsafe_get arc_of i);
          Array.unsafe_set q !tail v;
          incr tail
        end
      done
    end
  done

(* {2 Delta-stepping} *)

(* Hard cap on circular-slot count; [delta] is clamped up to respect it.
   1024 live buckets is plenty of distance resolution: a bucket only
   costs extra inner rounds when a shortest path crosses it several
   times, and the clamp only engages when the length function spans >3
   orders of magnitude. *)
let max_slots = 1024

(* Fixed frozen-scan chunk size. Must not depend on the domain count:
   the chunk decomposition is part of the deterministic schedule. *)
let chunk_nodes = 2048

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

let ensure_bufs st k =
  if Array.length st.bufs < k then begin
    let old = Array.length st.bufs in
    let bufs =
      Array.init k (fun i ->
          if i < old then st.bufs.(i)
          else
            {
              cand_node = Array.make 256 0;
              cand_arc = Array.make 256 0;
              cand_dist = Array.make 256 0.0;
              cand_len = 0;
            })
    in
    st.bufs <- bufs
  end

(* Cold path of [buf_push], kept out of line and float-free. *)
let buf_grow b =
  let len = b.cand_len in
  let cap' = 2 * len in
  let cn = Array.make cap' 0 and ca = Array.make cap' 0 in
  let cd = Array.make cap' 0.0 in
  Array.blit b.cand_node 0 cn 0 len;
  Array.blit b.cand_arc 0 ca 0 len;
  Array.blit b.cand_dist 0 cd 0 len;
  b.cand_node <- cn;
  b.cand_arc <- ca;
  b.cand_dist <- cd

(* Inlined so [d] is stored straight from a register: a float argument
   of an out-of-line call is boxed. *)
let[@inline] buf_push b v a d =
  let len = b.cand_len in
  if len = Array.length b.cand_node then buf_grow b;
  Array.unsafe_set b.cand_node len v;
  Array.unsafe_set b.cand_arc len a;
  Array.unsafe_set b.cand_dist len d;
  b.cand_len <- len + 1

let delta_stepping ?target ?delta ?max_len ?(parallel = false) g
    ~(len : Graph.floats) ~src st =
  check_run "Sssp.delta_stepping" g st src;
  check_len "Sssp.delta_stepping" g len;
  (match delta with
  | Some d when not (d > 0.0 && d < infinity) ->
      invalid_arg "Sssp.delta_stepping: delta must be positive and finite"
  | _ -> ());
  let num_arcs = Graph.num_arcs g in
  let row = Graph.ba_adj_start g in
  let nbr = Graph.ba_adj_node g in
  let arc_of = Graph.ba_adj_arc g in
  let dist = st.dist
  and parent = st.parent
  and visit = st.visit
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
  ensure_bufs st 1;
  let bucket_len = st.bucket_len in
  let push_bucket slot u =
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
  let stamp = st.stamp in
  (* Lower edge of the current bucket, in an unboxed cell: the closures
     below capture it, and a captured [float ref] boxes on every write. *)
  let base = [| 0.0 |]
  and base_slot = ref 0
  and live = ref 1 in
  push_bucket 0 src;
  let target = match target with Some t -> t | None -> -1 in
  (* Slot offset of distance [d] from the current base. The clamp
     absorbs ulp-level rounding at the window edges; a misbucketed
     entry is merely drained early and re-queued, never lost. *)
  let[@inline] slot_of d =
    let off = int_of_float ((d -. Array.unsafe_get base 0) /. delta) in
    let off = if off < 0 then 0 else if off >= slots then slots - 1 else off in
    (!base_slot + off) mod slots
  in
  (* Apply one candidate (v, arc, nd); returns unit. The re-check
     against the (no longer frozen) dist makes earlier candidates in
     this same apply pass win ties and stale candidates no-ops. Inlined
     (as is [slot_of]) so [nd] is never boxed. *)
  let[@inline] apply v a nd =
    if A1.unsafe_get visit v <> stamp then begin
      A1.unsafe_set visit v stamp;
      A1.unsafe_set processed v nan;
      A1.unsafe_set dist v nd;
      A1.unsafe_set parent v a;
      push_bucket (slot_of nd) v;
      incr live
    end
    else if nd < A1.unsafe_get dist v then begin
      A1.unsafe_set dist v nd;
      A1.unsafe_set parent v a;
      push_bucket (slot_of nd) v;
      incr live
    end
  in
  (* Candidate generation against frozen distances for the frontier
     slice [lo, hi) into [b] — pure w.r.t. shared state, so chunks can
     run on any domain. *)
  let gen_chunk frontier lo hi b =
    b.cand_len <- 0;
    for j = lo to hi - 1 do
      let u = Array.unsafe_get frontier j in
      let du = A1.unsafe_get dist u in
      let hi_row = A1.unsafe_get row (u + 1) in
      for i = A1.unsafe_get row u to hi_row - 1 do
        let a = A1.unsafe_get arc_of i in
        let w = A1.unsafe_get len a in
        if w < infinity then begin
          let nd = du +. w in
          let v = A1.unsafe_get nbr i in
          if A1.unsafe_get visit v <> stamp || nd < A1.unsafe_get dist v then
            buf_push b v a nd
        end
      done
    done;
    b
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
      if target >= 0 && A1.get visit target = stamp && A1.get dist target <= b0
      then finished := true
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
            let nchunks = ((!flen - 1) / chunk_nodes) + 1 in
            ensure_bufs st nchunks;
            let flen = !flen in
            if parallel && nchunks > 1 then
              ignore
                (Tb_prelude.Parallel.map_array
                   (fun c ->
                     let lo = c * chunk_nodes in
                     let hi = min flen (lo + chunk_nodes) in
                     gen_chunk frontier lo hi st.bufs.(c))
                   (Array.init nchunks (fun c -> c)))
            else
              for c = 0 to nchunks - 1 do
                let lo = c * chunk_nodes in
                let hi = min flen (lo + chunk_nodes) in
                ignore (gen_chunk frontier lo hi st.bufs.(c))
              done;
            (* Sequential apply in chunk order x buffer order: the
               deterministic part of the schedule. *)
            for c = 0 to nchunks - 1 do
              let b = st.bufs.(c) in
              for j = 0 to b.cand_len - 1 do
                apply
                  (Array.unsafe_get b.cand_node j)
                  (Array.unsafe_get b.cand_arc j)
                  (Array.unsafe_get b.cand_dist j)
              done
            done
          end
        done
      end
    end
  done;
  (* Leave no stale queue entries for the next run: lengths are stamped,
     but bucket contents are not. *)
  Array.fill bucket_len 0 slots 0

(* Arc count at which [run] switches from the heap to buckets: below
   it the heap's constants win, above it delta-stepping's cache-friendly
   frontiers (and optional domain parallelism) do. Shared with the flow
   solvers so "big instance" means one thing everywhere. *)
let auto_delta_arcs = 32768

let run ?target ?max_len ?(parallel = false) g ~len ~src st =
  if Graph.num_arcs g >= auto_delta_arcs then
    delta_stepping ?target ?max_len ~parallel g ~len ~src st
  else dijkstra ?target g ~len ~src st

(* {2 Closure/convenience wrappers} *)

let dijkstra_dist g ~len ~src =
  let st = create_state (Graph.num_nodes g) in
  let num_arcs = Graph.num_arcs g in
  let l = Graph.make_floats num_arcs in
  for a = 0 to num_arcs - 1 do
    A1.set l a (len a)
  done;
  dijkstra g ~len:l ~src st;
  Array.init (Graph.num_nodes g) (fun v -> distance st v)
