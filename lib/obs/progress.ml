(* Progress/ETA lines for long sweeps.

   The experiment harness runs sweeps that take minutes; a stepper
   prints "label: 3/12 done (45.2s elapsed, ~2m10s left)" to stderr so
   stdout stays a clean, diffable table stream. The ETA is the naive
   linear extrapolation — fine for sweeps whose points are comparable,
   and honest about nothing else.

   Steppers are called from parallel maps, so [step] takes the lock;
   progress is never hot-path. *)

type t = {
  label : string;
  total : int;
  mutable done_ : int;
  t0 : int64;
  lock : Mutex.t;
  out : out_channel;
}

let fmt_seconds s =
  if s < 60.0 then Printf.sprintf "%.1fs" s
  else if s < 3600.0 then
    Printf.sprintf "%dm%02ds" (int_of_float s / 60) (int_of_float s mod 60)
  else
    Printf.sprintf "%dh%02dm" (int_of_float s / 3600)
      (int_of_float s mod 3600 / 60)

let create ?(out = stderr) ~label total =
  { label; total; done_ = 0; t0 = Clock.now_ns (); lock = Mutex.create (); out }

let step p =
  Mutex.lock p.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock p.lock)
    (fun () ->
      p.done_ <- p.done_ + 1;
      let elapsed = Clock.ns_to_ms (Clock.elapsed_ns p.t0) /. 1e3 in
      let line =
        if p.done_ >= p.total then
          Printf.sprintf "%s: %d/%d done (%s)" p.label p.total p.total
            (fmt_seconds elapsed)
        else begin
          let eta =
            elapsed /. float_of_int p.done_
            *. float_of_int (p.total - p.done_)
          in
          Printf.sprintf "%s: %d/%d done (%s elapsed, ~%s left)" p.label
            p.done_ p.total (fmt_seconds elapsed) (fmt_seconds eta)
        end
      in
      Printf.fprintf p.out "%s\n%!" line)
