module Table = Tb_prelude.Table
module Stats = Tb_prelude.Stats
module Topology = Tb_topo.Topology
module Failures = Tb_topo.Failures
module Synthetic = Tb_tm.Synthetic
module Solve = Tb_harness.Solve
module Sweep = Tb_harness.Sweep
module Warm = Tb_harness.Warm
module Json = Tb_obs.Json

(* Throughput vs link-failure rate (robustness extension; cf. Singla et
   al., "High Throughput Data Center Topology Design", which evaluates
   topologies under link failures).

   For each topology and failure rate: sample [trials] failed instances
   (uniform link deletion, resampled until the endpoints stay
   connected), and report mean throughput, both absolute and relative
   to the intact network. Every cell is solved through the Tb_harness
   degradation chain, so a pathological failed instance degrades to a
   certified cut bracket instead of killing the sweep; the "rungs"
   column records which solver rung produced each trial (e=exact,
   f=FPTAS, c=cuts). [sweep] is the one implementation: the bench
   experiment, the golden mini-sweep and `topobench failures` all run
   it. *)

let rates cfg =
  if cfg.Common.quick then [ 0.0; 0.1 ] else [ 0.0; 0.05; 0.1; 0.15; 0.2 ]

let topologies cfg =
  [
    Tb_topo.Hypercube.make ~hosts_per_switch:2 ~dim:4 ();
    Tb_topo.Fattree.make ~k:4 ();
    Tb_topo.Jellyfish.make ~hosts_per_switch:2
      ~rng:(Common.rng cfg 9100)
      ~n:16 ~degree:5 ();
  ]

(* A rate's cell key and RNG salt both come from the rate rounded to
   thousandths, so two rates with distinct keys never share failure
   samples. *)
let permille rate = Float.to_int (Float.round (rate *. 1000.0))
let rate_key rate = Printf.sprintf "rate=%.3f" (float (permille rate) /. 1000.0)

(* One (topology, rate, trial) cell, as a checkpointable JSON record.
   Its salt seeds both the failure sample and the fault injector, so a
   resumed or fault-injected sweep replays bit-identically. [?warm]
   carries a warm cache keyed by the INTACT topology label — stable
   across the per-trial failed rebuilds — so neighboring cells of one
   topology chain their dual lengths. *)
let cell ?warm ?budget_ms ?fault cfg topo tm ~rate ~trial =
  let key =
    Printf.sprintf "%s|%s|trial=%d" (Topology.label topo) (rate_key rate) trial
  in
  let salt = 9200 + (trial * 131) + (1000 * permille rate) in
  let run () =
    let failed =
      if rate = 0.0 then Some topo
      else Failures.fail_links_connected ~rng:(Common.rng cfg salt) ~rate topo
    in
    match failed with
    | None ->
      (* Could not keep the endpoints connected: the honest answer for
         this trial is throughput 0 (record it, don't crash). *)
      Json.Obj [ ("value", Json.Float 0.0); ("rung", Json.String "disconnected") ]
    | Some failed ->
      let fault = Option.map (fun f -> f (cfg.Common.seed + salt)) fault in
      let o =
        Solve.throughput
          ~policy:(Common.harness_policy ?budget_ms cfg failed)
          ?fault ?warm failed tm
      in
      Solve.outcome_to_json o
  in
  { Sweep.key; run }

(* Bad sweep input fails before any cell runs: two rates sharing a cell
   key would replay each other's results from a checkpoint. *)
let validate ~rates ~trials =
  if trials < 1 then
    invalid_arg (Printf.sprintf "failure sweep: trials must be >= 1, got %d" trials);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun rate ->
      if not (rate >= 0.0 && rate < 1.0) then
        invalid_arg
          (Printf.sprintf "failure sweep: rate %g lies outside [0, 1)" rate);
      match Hashtbl.find_opt seen (rate_key rate) with
      | Some r ->
        invalid_arg
          (Printf.sprintf "failure sweep: rates %g and %g share the cell key %s"
             r rate (rate_key rate))
      | None -> Hashtbl.add seen (rate_key rate) rate)
    rates

(* One rate's trials: their cells in trial order, the summary of their
   throughput, its mean relative to the intact (rate 0) row when one
   came earlier with a positive mean, and one rung letter per trial. *)
type row = {
  rate : float;
  cells : (string * Json.t) list;
  summary : Stats.summary;
  rel : float option;
  rungs : string;
}

let rung_letter j =
  match Option.bind (Json.member "rung" j) Json.to_str with
  | Some "exact" -> "e"
  | Some "fptas" -> "f"
  | Some "cuts" -> "c"
  | Some _ | None -> "?"

(* Sweep one topology under [tm] over [rates] x [trials] cells.
   [checkpoint] replays completed cells and records the rest; [warm] is
   a warm cache shared by the cells, restored first from the
   checkpoint's carry-along state and saved with every cell record, so
   a killed-and-resumed warm sweep stays bit-identical to an
   uninterrupted one. [fault] makes a cell's injector from its seed.
   @raise Invalid_argument before any solve when [trials < 1], a rate
   lies outside [0, 1) or two rates share a cell key.
   @raise Sweep.Interrupted after a graceful-stop signal. *)
let sweep ?checkpoint ?warm ?budget_ms ?fault ?on_cell cfg topo tm ~rates
    ~trials =
  validate ~rates ~trials;
  (match (warm, checkpoint) with
  | Some c, Some cp ->
    Option.iter
      (fun j -> ignore (Warm.restore c j))
      (Tb_harness.Checkpoint.extra cp)
  | _ -> ());
  let extra = Option.map (fun c () -> Warm.to_json c) warm in
  let warm = Option.map (fun c -> (c, Topology.label topo)) warm in
  let baseline = ref nan in
  List.map
    (fun rate ->
      let cells =
        Sweep.run ?checkpoint ?extra ?on_cell
          (List.init trials (fun trial ->
               cell ?warm ?budget_ms ?fault cfg topo tm ~rate ~trial))
      in
      let value (_, j) =
        Option.value ~default:nan (Option.bind (Json.member "value" j) Json.to_float)
      in
      let s = Stats.summarize (Array.of_list (List.map value cells)) in
      if rate = 0.0 then baseline := s.Stats.mean;
      {
        rate;
        cells;
        summary = s;
        rel =
          (if Float.is_finite !baseline && !baseline > 0.0 then
             Some (s.Stats.mean /. !baseline)
           else None);
        rungs = String.concat "" (List.map (fun (_, j) -> rung_letter j) cells);
      })
    rates

(* One table row per (topology, rate). *)
let print ~title sweeps =
  let t =
    Table.create ~title
      [ "topology"; "rate"; "tp-mean"; "ci95"; "rel-to-0"; "rungs" ]
  in
  List.iter
    (fun (topo, rows) ->
      List.iter
        (fun r ->
          Table.add_row t
            [
              Topology.label topo;
              Printf.sprintf "%.3f" r.rate;
              Table.cell_f r.summary.Stats.mean;
              Table.cell_f r.summary.Stats.ci95;
              Option.fold ~none:"-" ~some:Table.cell_f r.rel;
              r.rungs;
            ])
        rows)
    sweeps;
  Table.print t

let run cfg =
  Common.section "Failure sweep: A2A throughput vs link-failure rate";
  print ~title:"Failure sweep"
    (List.map
       (fun topo ->
         ( topo,
           sweep cfg topo (Synthetic.all_to_all topo) ~rates:(rates cfg)
             ~trials:(max 1 cfg.Common.iterations) ))
       (topologies cfg))

(* Deterministic mini-sweep shared by gen_golden.exe and the regression
   test: per-cell JSON outcomes of a two-family failures sweep at seed
   42, solved warm or cold. Instance sizes are chosen so the exact-LP
   rung's variable budget is exceeded and every cell lands on the FPTAS
   rung — where warm starts actually matter — and there is no deadline,
   so the outcomes are bit-deterministic and golden-able. *)
let golden ~warm () =
  let cfg =
    {
      Common.seed = 42;
      iterations = 2;
      quick = true;
      (* Loose certified gap: the vectors pin bit-identity, not
         precision, and the FPTAS cost at golden-test time scales with
         1/tol. *)
      eps = 0.4;
      tol = 0.08;
    }
  in
  let topos =
    [
      Tb_topo.Hypercube.make ~hosts_per_switch:1 ~dim:4 ();
      Tb_topo.Jellyfish.make ~hosts_per_switch:2
        ~rng:(Common.rng cfg 9100)
        ~n:10 ~degree:3 ();
    ]
  in
  let warm = if warm then Some (Warm.create ()) else None in
  List.concat_map
    (fun topo ->
      List.concat_map
        (fun r -> r.cells)
        (sweep ?warm cfg topo (Synthetic.all_to_all topo) ~rates:[ 0.0; 0.2 ]
           ~trials:cfg.Common.iterations))
    topos
