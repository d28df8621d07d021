module Table = Tb_prelude.Table
module Stats = Tb_prelude.Stats
module Topology = Tb_topo.Topology
module Failures = Tb_topo.Failures
module Synthetic = Tb_tm.Synthetic
module Solve = Tb_harness.Solve
module Sweep = Tb_harness.Sweep
module Json = Tb_obs.Json

(* Throughput vs link-failure rate (robustness extension; cf. Singla et
   al., "High Throughput Data Center Topology Design", which evaluates
   topologies under link failures).

   For each topology and failure rate: sample [iterations] failed
   instances (uniform link deletion, resampled until the endpoints stay
   connected), and report mean A2A throughput, both absolute and
   relative to the intact network. Every cell is solved through the
   Tb_harness degradation chain, so a pathological failed instance
   degrades to a certified cut bracket instead of killing the sweep;
   the "rungs" column records which solver rung produced each trial
   (e=exact, f=FPTAS, c=cuts). *)

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

(* One (topology, rate, trial) cell, as a checkpointable JSON record.
   [?warm] carries a warm cache keyed by the INTACT topology label —
   stable across the per-trial failed rebuilds — so neighboring cells
   of one topology chain their dual lengths. *)
let cell ?warm cfg topo tm ~rate ~trial =
  let key =
    Printf.sprintf "%s|rate=%.3f|trial=%d" (Topology.label topo) rate trial
  in
  let run () =
    let rng = Common.rng cfg (9200 + (trial * 131) + (1000 * int_of_float (rate *. 1000.0))) in
    let failed =
      if rate = 0.0 then Some topo
      else Failures.fail_links_connected ~rng ~rate topo
    in
    match failed with
    | None ->
      (* Could not keep the endpoints connected: the honest answer for
         this trial is throughput 0 (record it, don't crash). *)
      Json.Obj [ ("value", Json.Float 0.0); ("rung", Json.String "disconnected") ]
    | Some failed ->
      let o =
        Solve.throughput ~policy:(Common.harness_policy cfg failed) ?warm failed
          tm
      in
      Solve.outcome_to_json o
  in
  { Sweep.key; run }

let run ?checkpoint ?(warm = false) cfg =
  Common.section "Failure sweep: A2A throughput vs link-failure rate";
  let cache = if warm then Some (Tb_harness.Warm.create ()) else None in
  (* Resume: the warm cache persists in the checkpoint's [extra] slot,
     written atomically with each cell record, so a resumed warm sweep
     continues from exactly the state of the interrupted one. *)
  (match (cache, checkpoint) with
  | Some c, Some cp ->
    Option.iter
      (fun j -> ignore (Tb_harness.Warm.restore c j))
      (Tb_harness.Checkpoint.extra cp)
  | _ -> ());
  let extra = Option.map (fun c () -> Tb_harness.Warm.to_json c) cache in
  let t =
    Table.create ~title:"Failure sweep"
      [ "topology"; "rate"; "tp-mean"; "ci95"; "rel-to-0"; "rungs" ]
  in
  List.iter
    (fun topo ->
      let tm = Synthetic.all_to_all topo in
      let trials = max 1 cfg.Common.iterations in
      let baseline = ref nan in
      let warm_for_topo =
        Option.map (fun c -> (c, Topology.label topo)) cache
      in
      List.iter
        (fun rate ->
          let cells =
            List.init trials (fun trial ->
                cell ?warm:warm_for_topo cfg topo tm ~rate ~trial)
          in
          let results = Sweep.run ?checkpoint ?extra cells in
          let value j =
            match Option.bind (Json.member "value" j) Json.to_float with
            | Some v -> v
            | None -> nan
          in
          let rungs =
            String.concat ""
              (List.map
                 (fun (_, j) ->
                   match Option.bind (Json.member "rung" j) Json.to_str with
                   | Some "exact" -> "e"
                   | Some "fptas" -> "f"
                   | Some "cuts" -> "c"
                   | Some _ | None -> "?")
                 results)
          in
          let s =
            Stats.summarize (Array.of_list (List.map (fun (_, j) -> value j) results))
          in
          if rate = 0.0 then baseline := s.Stats.mean;
          Table.add_row t
            [
              Topology.label topo;
              Printf.sprintf "%.2f" rate;
              Table.cell_f s.Stats.mean;
              Table.cell_f s.Stats.ci95;
              (if Float.is_finite !baseline && !baseline > 0.0 then
                 Table.cell_f (s.Stats.mean /. !baseline)
               else "-");
              rungs;
            ])
        (rates cfg))
    (topologies cfg);
  Table.print t

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
  let rates = [ 0.0; 0.2 ] in
  let cache = if warm then Some (Tb_harness.Warm.create ()) else None in
  List.concat_map
    (fun topo ->
      let tm = Synthetic.all_to_all topo in
      let warm_for_topo =
        Option.map (fun c -> (c, Topology.label topo)) cache
      in
      List.concat_map
        (fun rate ->
          List.map
            (fun trial ->
              let c = cell ?warm:warm_for_topo cfg topo tm ~rate ~trial in
              (c.Sweep.key, c.Sweep.run ()))
            [ 0; 1 ])
        rates)
    topos
