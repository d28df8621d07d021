(* Tb_service.Pool: the supervised multi-process service tier.

   The load-bearing properties: the pure control-plane pieces (backoff
   schedule, circuit breaker, fair queue) behave exactly as specified;
   a pool serves correct results (canonical-byte-identical to an
   in-process solve); a SIGKILLed worker is detected, restarted, and
   its request retried to a byte-identical answer; admission control
   rejects overload with a typed error; killing the supervisor -9
   leaves no live or zombie workers behind; and a graceful drain merges
   the per-worker store segments. *)

module Request = Tb_service.Request
module Res = Tb_service.Result
module Service = Tb_service.Service
module Pool = Tb_service.Pool
module Store = Tb_service.Store
module Fault = Tb_harness.Fault
module Json = Tb_obs.Json
module Rng = Tb_prelude.Rng

let spec s =
  match Tb_topo.Catalog.spec_of_string s with
  | Ok sp -> sp
  | Error e -> failwith e

let req ?seed topo tm =
  Request.make ?seed ~topo:(Request.Spec (spec topo)) ~tm:(Request.Named tm) ()

let canon r = Json.to_string (Res.to_json (Res.canonical r))

(* The fault-free truth for a request, solved in this process. *)
let oracle r =
  let svc = Service.create ~capacity:4 () in
  canon (Service.handle svc r).Service.result

let quick_config =
  {
    Pool.default_config with
    Pool.workers = 2;
    cache_capacity = 16;
    backoff_base_ms = 5.0;
    backoff_max_ms = 100.0;
    wall_ms = 20_000.0;
  }

let with_pool config f =
  let pool = Pool.create ~config () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ---- Backoff schedule. ---- *)

let test_backoff_schedule () =
  let rng = Rng.make 1 in
  let d attempt =
    Pool.Backoff.delay_ms ~base_ms:10.0 ~max_ms:1000.0 ~jitter:0.0 ~rng
      ~attempt
  in
  Alcotest.(check (float 1e-9)) "attempt 1 is base" 10.0 (d 1);
  Alcotest.(check (float 1e-9)) "attempt 2 doubles" 20.0 (d 2);
  Alcotest.(check (float 1e-9)) "attempt 4" 80.0 (d 4);
  Alcotest.(check (float 1e-9)) "capped" 1000.0 (d 12);
  Alcotest.(check (float 1e-9)) "huge attempt stays capped" 1000.0 (d 100);
  (* Jitter stretches upward only, within the stated factor. *)
  let rng = Rng.make 2 in
  for attempt = 1 to 8 do
    let base =
      Pool.Backoff.delay_ms ~base_ms:10.0 ~max_ms:1000.0 ~jitter:0.0
        ~rng:(Rng.make 0) ~attempt
    in
    let j =
      Pool.Backoff.delay_ms ~base_ms:10.0 ~max_ms:1000.0 ~jitter:0.5 ~rng
        ~attempt
    in
    if j < base -. 1e-9 || j > (base *. 1.5) +. 1e-9 then
      Alcotest.failf "jittered delay %f outside [%f, %f]" j base (base *. 1.5)
  done

(* ---- Circuit breaker. ---- *)

let test_breaker_state_machine () =
  let b = Pool.Breaker.create ~threshold:3 ~cooldown_ms:100.0 () in
  let state now = Pool.Breaker.state b ~now_ms:now in
  Alcotest.(check bool) "starts closed" true (state 0.0 = Pool.Breaker.Closed);
  Pool.Breaker.record_failure b ~now_ms:1.0;
  Pool.Breaker.record_failure b ~now_ms:2.0;
  Alcotest.(check bool) "below threshold stays closed" true
    (state 3.0 = Pool.Breaker.Closed);
  Alcotest.(check int) "failure streak counted" 2
    (Pool.Breaker.consecutive_failures b);
  Pool.Breaker.record_failure b ~now_ms:3.0;
  Alcotest.(check bool) "trips open at threshold" true
    (state 4.0 = Pool.Breaker.Open);
  Alcotest.(check bool) "open refuses work" false
    (Pool.Breaker.allows b ~now_ms:4.0);
  Alcotest.(check bool) "half-open after cooldown" true
    (state 104.0 = Pool.Breaker.Half_open);
  Alcotest.(check bool) "half-open admits one probe" true
    (Pool.Breaker.allows b ~now_ms:104.0);
  Alcotest.(check bool) "second probe refused while first in flight" false
    (Pool.Breaker.allows b ~now_ms:104.0);
  (* A failing probe re-opens for a full cooldown. *)
  Pool.Breaker.record_failure b ~now_ms:105.0;
  Alcotest.(check bool) "probe failure re-opens" true
    (state 106.0 = Pool.Breaker.Open);
  Alcotest.(check bool) "half-open again after second cooldown" true
    (state 206.0 = Pool.Breaker.Half_open);
  Alcotest.(check bool) "probe admitted again" true
    (Pool.Breaker.allows b ~now_ms:206.0);
  Pool.Breaker.record_success b;
  Alcotest.(check bool) "probe success closes" true
    (state 207.0 = Pool.Breaker.Closed);
  Alcotest.(check int) "streak reset" 0 (Pool.Breaker.consecutive_failures b)

(* ---- Fair queue. ---- *)

let test_fair_queue_round_robin () =
  let q = Pool.Fair_queue.create () in
  (* A floods, B and C each queue one: B and C must not starve. *)
  List.iter (fun x -> Pool.Fair_queue.push q ~client:"a" x) [ 1; 2; 3; 4 ];
  Pool.Fair_queue.push q ~client:"b" 10;
  Pool.Fair_queue.push q ~client:"c" 20;
  Alcotest.(check int) "length" 6 (Pool.Fair_queue.length q);
  let drained = List.init 6 (fun _ -> Option.get (Pool.Fair_queue.pop q)) in
  Alcotest.(check (list int)) "round-robin across clients, FIFO within"
    [ 1; 10; 20; 2; 3; 4 ] drained;
  Alcotest.(check (option int)) "empty pops None" None (Pool.Fair_queue.pop q);
  Alcotest.(check int) "empty length" 0 (Pool.Fair_queue.length q)

(* ---- End-to-end correctness. ---- *)

let test_pool_serves_correct_results () =
  with_pool quick_config @@ fun pool ->
  let reqs = [ req "hypercube:2" "a2a"; req "hypercube:3" "a2a" ] in
  let tickets =
    List.map
      (fun r ->
        match Pool.submit pool r with
        | Ok id -> (id, r)
        | Error _ -> Alcotest.fail "submit rejected under no load")
      reqs
  in
  List.iter
    (fun (id, r) ->
      let c = Pool.await pool id in
      Alcotest.(check string) "hash matches request" (Request.hash r)
        c.Pool.c_hash;
      Alcotest.(check string) "canonical bytes match in-process solve"
        (oracle r) (canon c.Pool.c_result))
    tickets

(* ---- Worker death and restart. ---- *)

let proc_alive pid =
  (* Zombies count as dead: the supervisor reaps, so after the failure
     path runs, the pid must be gone from /proc entirely. *)
  Sys.file_exists (Printf.sprintf "/proc/%d" pid)

let test_worker_kill_restart () =
  with_pool quick_config @@ fun pool ->
  let victim =
    match Pool.worker_pids pool with
    | pid :: _ -> pid
    | [] -> Alcotest.fail "no workers"
  in
  Unix.kill victim Sys.sigkill;
  (* Pump until the supervisor has reaped the corpse and restarted the
     slot (backoff is a few ms in quick_config). *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Pool.restarts pool < 1 && Unix.gettimeofday () < deadline do
    Pool.step ~timeout_ms:10.0 pool
  done;
  Alcotest.(check bool) "worker restarted" true (Pool.restarts pool >= 1);
  Alcotest.(check bool) "corpse reaped (no zombie)" false (proc_alive victim);
  Alcotest.(check int) "pool back to full strength" 2
    (List.length (Pool.worker_pids pool));
  Alcotest.(check bool) "victim pid replaced" false
    (List.mem victim (Pool.worker_pids pool));
  (* And the pool still answers. *)
  let r = req "hypercube:2" "a2a" in
  match Pool.submit pool r with
  | Error _ -> Alcotest.fail "submit rejected after restart"
  | Ok id ->
    let c = Pool.await pool id in
    Alcotest.(check string) "answer correct after restart" (oracle r)
      (canon c.Pool.c_result)

(* ---- Retry determinism under chaos. ---- *)

let test_chaos_retry_bit_identical () =
  (* Aggressive seeded kill chaos: many dispatches die mid-solve and
     are retried on another worker. Every completion must still render
     the very bytes of a fault-free solve, and at least one must have
     actually survived a retry for the test to mean anything. *)
  let chaos = Fault.make ~kill_p:0.5 ~seed:3 () in
  let config =
    { quick_config with Pool.workers = 3; max_retries = 10; chaos }
  in
  with_pool config @@ fun pool ->
  let r = req "hypercube:2" "a2a" in
  let want = oracle r in
  let retried = ref 0 in
  let n = 24 in
  (* Distinct seeds defeat the worker-side cache: each request is a
     fresh solve, so each dispatch draws fresh chaos. *)
  let tickets =
    List.init n (fun i ->
        match Pool.submit pool (req ~seed:(1000 + i) "hypercube:2" "rm1") with
        | Ok id -> id
        | Error _ -> Alcotest.fail "submit rejected")
  in
  List.iter
    (fun id ->
      let c = Pool.await pool id in
      retried := !retried + c.Pool.c_retries;
      if Res.is_error c.Pool.c_result then
        Alcotest.failf "request failed outright: %s"
          (Option.value ~default:"?" c.Pool.c_result.Res.error))
    tickets;
  Alcotest.(check bool) "at least one request survived a retry" true
    (!retried > 0);
  (* The canonical-bytes check on a deterministic request: killed and
     retried elsewhere, the answer is the fault-free answer. *)
  match Pool.submit pool r with
  | Error _ -> Alcotest.fail "submit rejected"
  | Ok id ->
    let c = Pool.await pool id in
    Alcotest.(check string) "retried result bit-identical to unfaulted run"
      want (canon c.Pool.c_result)

(* ---- Admission control. ---- *)

let test_overload_typed_rejection () =
  let config = { quick_config with Pool.max_queue = 2 } in
  with_pool config @@ fun pool ->
  (* Submit without pumping the loop: nothing dispatches, so the third
     and later submissions must be rejected with the typed error. *)
  let outcomes =
    List.init 6 (fun i -> Pool.submit pool (req ~seed:i "hypercube:2" "a2a"))
  in
  let accepted, rejected =
    List.partition (function Ok _ -> true | Error _ -> false) outcomes
  in
  Alcotest.(check int) "queue bound honored" 2 (List.length accepted);
  Alcotest.(check int) "overflow rejected" 4 (List.length rejected);
  List.iter
    (function
      | Error Pool.Overloaded -> ()
      | Error Pool.Draining -> Alcotest.fail "expected Overloaded, got Draining"
      | Ok _ -> ())
    rejected;
  (* Typed rejection, not a lost request: the accepted work completes. *)
  List.iter
    (function
      | Ok id ->
        let c = Pool.await pool id in
        Alcotest.(check bool) "accepted request answered" false
          (Res.is_error c.Pool.c_result)
      | Error _ -> ())
    accepted

(* ---- Orphan handling: kill -9 the supervisor itself. ---- *)

let test_supervisor_kill_leaves_no_orphans () =
  let pids_path = Filename.temp_file "tb_pool_test" ".pids" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists pids_path then Sys.remove pids_path)
  @@ fun () ->
  flush stdout;
  flush stderr;
  let supervisor =
    match Unix.fork () with
    | 0 ->
      (* The supervisor-to-be: bring up a pool, publish the worker
         pids, then hang until killed. *)
      (try
         let pool = Pool.create ~config:quick_config () in
         let oc = open_out pids_path in
         List.iter
           (fun pid -> Printf.fprintf oc "%d\n" pid)
           (Pool.worker_pids pool);
         close_out oc;
         Unix.sleep 60
       with _ -> ());
      Stdlib.exit 1
    | pid -> pid
  in
  (* Wait for the pid file to be complete (2 workers). *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let read_pids () =
    if not (Sys.file_exists pids_path) then []
    else begin
      let ic = open_in pids_path in
      let rec go acc =
        match input_line ic with
        | line -> go (int_of_string line :: acc)
        | exception End_of_file ->
          close_in ic;
          List.rev acc
      in
      go []
    end
  in
  let rec await_pids () =
    match read_pids () with
    | pids when List.length pids >= 2 -> pids
    | _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "supervisor never published worker pids";
      Unix.sleepf 0.02;
      await_pids ()
  in
  let workers = await_pids () in
  List.iter
    (fun pid ->
      Alcotest.(check bool) "worker alive before the kill" true
        (proc_alive pid))
    workers;
  (* SIGKILL the supervisor: no handler can run, no drain happens. The
     workers' socketpairs close as the kernel tears the process down,
     their serve loops hit EOF, and they exit on their own. *)
  Unix.kill supervisor Sys.sigkill;
  let _, status = Unix.waitpid [] supervisor in
  Alcotest.(check bool) "supervisor killed by SIGKILL" true
    (status = Unix.WSIGNALED Sys.sigkill);
  (* The orphaned workers must exit (reparented to init, which reaps
     them): within the grace window each pid is gone or at worst a
     zombie awaiting init's reap — never a live process. *)
  let gone_or_zombie pid =
    let stat = Printf.sprintf "/proc/%d/stat" pid in
    (not (Sys.file_exists stat))
    ||
    let ic = open_in stat in
    let line = input_line ic in
    close_in ic;
    (* State is the field after the parenthesized comm. *)
    match String.rindex_opt line ')' with
    | Some i when i + 2 < String.length line -> line.[i + 2] = 'Z'
    | _ -> false
  in
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec wait_exit pids =
    let live = List.filter (fun p -> not (gone_or_zombie p)) pids in
    if live = [] then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "worker(s) still running after supervisor kill: %s"
        (String.concat "," (List.map string_of_int live))
    else begin
      Unix.sleepf 0.05;
      wait_exit live
    end
  in
  wait_exit workers

(* ---- Graceful drain merges store segments. ---- *)

let test_drain_merges_segments () =
  let dir = Filename.temp_file "tb_pool_test" ".store" in
  Sys.remove dir;
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let config = { quick_config with Pool.store_dir = Some dir } in
  let pool = Pool.create ~config () in
  let reqs = List.init 4 (fun i -> req ~seed:(2000 + i) "hypercube:2" "rm1") in
  let tickets =
    List.map
      (fun r ->
        match Pool.submit pool r with
        | Ok id -> id
        | Error _ -> Alcotest.fail "submit rejected")
      reqs
  in
  List.iter (fun id -> ignore (Pool.await pool id)) tickets;
  Pool.drain pool;
  let merged = Filename.concat dir "merged.ndjson" in
  Alcotest.(check bool) "merged store written on drain" true
    (Sys.file_exists merged);
  let st = Store.open_ ~path:merged in
  Alcotest.(check int) "all distinct results merged" 4 (Store.length st);
  List.iter
    (fun r ->
      Alcotest.(check bool) "request present in merged store" true
        (Store.mem st (Request.hash r)))
    reqs;
  (* Draining again is a no-op, and the pool is unusable afterwards. *)
  Pool.drain pool;
  Alcotest.(check bool) "submit after drain raises" true
    (match Pool.submit pool (req "hypercube:2" "a2a") with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- Over-long request lines on the ndjson front. ---- *)

(* A 64 MiB request line, then a valid one, streamed through
   [Pool.serve] over a pipe. The long line must be rejected with the
   same typed error [Service.serve] sends, without being buffered: the
   major heap grows by well under the line's size. The valid request
   behind it is still answered. *)
let test_serve_rejects_overlong_line () =
  let line_bytes = 64 * 1024 * 1024 in
  let valid = {|{"topo":{"spec":"hypercube:2"},"tm":{"named":"a2a"}}|} in
  let out_path = Filename.temp_file "tb_pool_serve" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove out_path) @@ fun () ->
  (* The pool forks its workers first, so they do not hold the pipe's
     write end open and EOF reaches [serve]. *)
  let pool = Pool.create ~config:quick_config () in
  let rd, wr = Unix.pipe () in
  let rec write_all b off len =
    if len > 0 then begin
      let k = Unix.write wr b off len in
      write_all b (off + k) (len - k)
    end
  in
  let writer =
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      let block = Bytes.make 65536 'x' in
      for _ = 1 to line_bytes / Bytes.length block do
        write_all block 0 (Bytes.length block)
      done;
      let tail = Bytes.of_string ("\n" ^ valid ^ "\n") in
      write_all tail 0 (Bytes.length tail);
      Unix._exit 0
    | pid -> pid
  in
  Unix.close wr;
  let top_heap () =
    (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)
  in
  let top0 = top_heap () in
  let oc = open_out out_path in
  Pool.serve ~ic:rd ~oc pool;
  close_out oc;
  let grown = top_heap () - top0 in
  Unix.close rd;
  ignore (Unix.waitpid [] writer);
  let lines =
    In_channel.with_open_text out_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun l ->
           match Json.of_string l with Ok j -> j | Error e -> Alcotest.fail e)
  in
  let str k j = Option.bind (Json.member k j) Json.to_str in
  (match lines with
  | [ err; ok ] ->
    Alcotest.(check (option string)) "typed rejection" (Some "bad_request")
      (str "code" err);
    let hash =
      match Request.of_line valid with
      | Ok r -> Request.hash r
      | Error e -> Alcotest.fail e
    in
    Alcotest.(check (option string)) "valid request answered after it"
      (Some hash) (str "hash" ok)
  | _ ->
    Alcotest.failf "expected 2 response lines, got %d" (List.length lines));
  if grown > line_bytes / 4 then
    Alcotest.failf "major heap grew by %d bytes for a %d-byte line" grown
      line_bytes

let () =
  Alcotest.run "pool"
    [
      ( "control",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "breaker state machine" `Quick
            test_breaker_state_machine;
          Alcotest.test_case "fair queue round robin" `Quick
            test_fair_queue_round_robin;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "serves correct results" `Quick
            test_pool_serves_correct_results;
          Alcotest.test_case "worker kill restart" `Quick
            test_worker_kill_restart;
          Alcotest.test_case "supervisor kill leaves no orphans" `Quick
            test_supervisor_kill_leaves_no_orphans;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "chaos retry bit-identical" `Quick
            test_chaos_retry_bit_identical;
          Alcotest.test_case "overload typed rejection" `Quick
            test_overload_typed_rejection;
          Alcotest.test_case "drain merges segments" `Quick
            test_drain_merges_segments;
          Alcotest.test_case "over-long line rejected unbuffered" `Quick
            test_serve_rejects_overlong_line;
        ] );
    ]
