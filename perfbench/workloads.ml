(* The four workloads: an end-to-end run (tracing, registry and Timing
   off) and a traced run that decomposes the workload into per-layer
   metrics.  Layers a workload bypasses are measured on small fixed
   probes (see perfbench/RATIONALE.md), so every traced run reports
   every per-layer metric. *)

module Store = Rn_util.Store
module Metrics = Rn_util.Metrics
module Stats = Rn_util.Stats

let tables_exps = [ "E1"; "A1" ]
let served_exps = [ "E5"; "E7"; "E8a"; "E8b"; "A7"; "A8" ]
let serve_probe_exps = [ "E8a" ]

(* Per-layer metric names, in the order BENCHMARK.json lists them. *)
let per_layer =
  [
    "graph.gen_s"; "graph.edges"; "detect.build_s"; "engine.rounds"; "engine.ns_per_round";
    "engine.wake_s"; "engine.collect_s"; "engine.adversary_s"; "engine.deliver_s";
    "engine.resume_s"; "engine.sends"; "engine.deliveries"; "engine.collisions";
    "engine.switch_ns_per_fiber_round"; "engine.kernel_ratio"; "adversary.kernel_ratio";
    "engine.shards2_ratio"; "engine.resume_shards2_ratio"; "engine.adv_kernel_rounds";
    "engine.sharded_rounds"; "engine.resume_sharded_rounds"; "core.mis_run_s";
    "core.ccds_run_s"; "core.explore_run_s"; "verify.check_s"; "harness.cells";
    "harness.cell_ms_p50"; "harness.cell_ms_tail"; "pool.jobs2_speedup"; "store.misses";
    "store.hits"; "store.journal_bytes"; "store.put_us_p50"; "store.warm_sweep_s";
    "serve.overhead_ratio"; "serve.cell_ms_p50"; "serve.cell_ms_tail";
    "serve.dispatch_gap_ms_p50"; "serve.frames"; "gc.minor_collections";
    "gc.major_collections"; "gc.top_heap_mb"; "trace.overhead_frac";
  ]

let count x = float_of_int x

(* --- layer metrics shared by several workloads --- *)

(* Layers below Harness, from a replay of [cells]. *)
let replay_layers cells =
  let mark = !Span.next_id in
  let results = Replay.run cells in
  let spans = Span.since mark in
  let per_call name =
    Stats.median (Array.of_list (List.map Span.duration (Span.named name spans)))
  in
  let verify = Span.total "verify.mis_check" spans +. Span.total "verify.ccds_check" spans in
  ( results,
    spans,
    Report.
      [
        m "graph.gen_s" "s" (Span.total "harness.geometric" spans);
        m "graph.edges" "count"
          (count (List.fold_left (fun acc r -> acc + r.Replay.edges) 0 results));
        m "detect.build_s" "s" (Span.total "detector.perfect" spans);
        m "core.mis_run_s" "s" (per_call "core.mis.run");
        m "core.ccds_run_s" "s" (per_call "core.ccds.run");
        m "core.explore_run_s" "s" (per_call "core.explore.run");
        m "verify.check_s" "s" verify;
        m "store.put_us_p50" "us" (per_call "store.put" *. 1e6);
      ] )

let harness_store_layers (cold : Sweep.t) (warm : Sweep.t) =
  let ms = List.map (fun s -> s *. 1000.0) cold.cell_s in
  Report.
    [
      m "harness.cells" "count" (count (List.length cold.cell_s));
      m "harness.cell_ms_p50" "ms" (Stats.median (Array.of_list ms));
      m "harness.cell_ms_tail" "ms" (Measure.tail ms);
      m "store.misses" "count" (count cold.misses);
      m "store.hits" "count" (count warm.hits);
      m "store.journal_bytes" "bytes" (count cold.journal_bytes);
      m "store.warm_sweep_s" "s" warm.sweep_s;
    ]

let sweep_ok (s : Sweep.t) = List.for_all (fun e -> Sweep.failed_cells e = 0) s.exps
let sweep_cells (s : Sweep.t) = List.fold_left (fun acc e -> acc + e.Sweep.cells) 0 s.exps

(* E1 at two cell domains against the same sweep at one. *)
let pool_layer ~e1_jobs1_s =
  let two = Span.off (fun () -> Sweep.cold ~jobs:2 [ "E1" ]) in
  (sweep_ok two, Report.m "pool.jobs2_speedup" "ratio" (e1_jobs1_s /. two.sweep_s))

let serve_layers ~served_s ~direct_s (sw : Served.sweep) =
  let ms = Served.cell_ms sw in
  let gaps = Served.dispatch_gaps_ms sw in
  Report.
    [
      m "serve.overhead_ratio" "ratio" (served_s /. direct_s);
      m "serve.cell_ms_p50" "ms" (Stats.median (Array.of_list ms));
      m "serve.cell_ms_tail" "ms" (Measure.tail ms);
      m "serve.dispatch_gap_ms_p50" "ms"
        (if gaps = [] then 0.0 else Stats.median (Array.of_list gaps));
      m "serve.frames" "count" (count (List.length sw.frames));
    ]

(* A served sweep of [exps] against a direct sweep of the same cells. *)
let serve_probe exps =
  let _, sw, _ = Served.cold exps in
  let direct = Span.off (fun () -> Sweep.cold exps) in
  ( sw.output = Sweep.output direct && sweep_ok direct,
    serve_layers ~served_s:sw.sweep_s ~direct_s:direct.sweep_s sw )

let cell_world_layers () =
  let w = Strategy.cell_world () in
  let strat = Strategy.cell_world_probe w in
  ( strat.Strategy.agree,
    Report.m "engine.switch_ns_per_fiber_round" "ns" (Strategy.cell_world_switch_ns w)
    :: Strategy.metrics strat )

let gc_layers ~(gc : Measure.gc_delta) ~overhead =
  Report.
    [
      m "gc.minor_collections" "count" (count gc.minor);
      m "gc.major_collections" "count" (count gc.major);
      m "gc.top_heap_mb" "MB" gc.top_heap_mb;
      m "trace.overhead_frac" "ratio" overhead;
    ]

(* Engine phases and counts over [f], from Timing and the registry. *)
let engine_layers f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let before = Metrics.snapshot () in
  let r, snap =
    Fun.protect ~finally:(fun () -> Metrics.set_enabled was) (fun () -> Beacon.with_timing f)
  in
  let d = Metrics.diff (Metrics.snapshot ()) before in
  let c name = Strategy.counter d name in
  ( r,
    Beacon.phase_metrics snap
    @ Beacon.count_metrics
        {
          Strategy.sends = c "engine.sends";
          deliveries = c "engine.deliveries";
          collisions = c "engine.collisions";
          rounds = snap.rounds;
        } )

(* --- tables-cold --- *)

(* Set-up is opening a cold store.  A sweep takes longer than half a
   run, so a run holds one or two sweeps; the open is a fraction of a
   millisecond, mostly a file creation and an fsync, and one or two
   samples of it drift by a fifth between sets of runs.  So after the
   measured sweeps the run also opens and closes [extra_opens] more
   fresh stores, and setup_s is the median over these and the sweeps'
   own opens. *)
let extra_opens = 20

let cold_open () =
  let dir = Measure.fresh_dir "store" in
  let store, dt = Measure.time (fun () -> Store.open_ dir) in
  (dir, store, dt)

let tables_cold_e2e ~seconds =
  Measure.reset_peak_rss ();
  let units, peak =
    Measure.units ~seconds (fun () ->
        let dir, store, dt = cold_open () in
        let sw =
          Fun.protect
            ~finally:(fun () -> Store.close store)
            (fun () -> Sweep.run store tables_exps)
        in
        Measure.rm_rf dir;
        (dt, sw))
  in
  let extra =
    List.init extra_opens (fun _ ->
        let dir, store, dt = cold_open () in
        Store.close store;
        Measure.rm_rf dir;
        dt)
  in
  let median_of f = Stats.median (Array.of_list (List.map f units)) in
  {
    Report.workload = "tables-cold";
    attempted = List.fold_left (fun acc (_, sw) -> acc + sweep_cells sw) 0 units;
    failed =
      List.fold_left
        (fun acc (_, sw) ->
          acc + List.fold_left (fun a e -> a + Sweep.failed_cells e) 0 sw.Sweep.exps)
        0 units;
    metrics =
      Report.
        [
          m "setup_s" "s" (Stats.median (Array.of_list (List.map fst units @ extra)));
          m "sweep_s" "s" (median_of (fun (_, sw) -> sw.Sweep.sweep_s));
          m "peak_rss_mb" "MB" peak;
        ];
    notes = [ ("sweeps", count (List.length units), "count") ];
  }

let tables_cold_traced () =
  let dir = Measure.fresh_dir "store" in
  let cold, gc =
    Span.off (fun () -> Measure.gc_delta (fun () -> Sweep.in_dir dir tables_exps))
  in
  let warm = Span.off (fun () -> Sweep.in_dir dir tables_exps) in
  let (results, spans, replay_m), engine_m =
    engine_layers (fun () -> replay_layers Replay.all_cells)
  in
  let root = List.hd (Span.named "replay" spans) in
  let cold2 = Span.off (fun () -> Sweep.cold tables_exps) in
  let overhead =
    Measure.mismatch ~root:[ Span.duration root ] ~untraced:[ cold.sweep_s; cold2.sweep_s ]
  in
  let e1_s = (List.find (fun e -> e.Sweep.id = "E1") cold.exps).exp_s in
  let pool_ok, pool_m = pool_layer ~e1_jobs1_s:e1_s in
  let strat_ok, strat_m = cell_world_layers () in
  let serve_ok, serve_m = serve_probe serve_probe_exps in
  let ok =
    sweep_ok cold && sweep_ok warm && sweep_ok cold2
    && Replay.check_against cold results
    && pool_ok && strat_ok && serve_ok
    && overhead <= Measure.mismatch_tolerance
  in
  ( sweep_cells cold + sweep_cells cold2 + List.length results,
    ok,
    replay_m @ engine_m @ strat_m @ harness_store_layers cold warm @ [ pool_m ] @ serve_m
    @ gc_layers ~gc ~overhead )

(* --- tables-served --- *)

(* Peak RSS is the sum of the client's, the daemon's and the worker's
   peaks over set-up and the first sweep. *)
let tables_served_e2e ~seconds =
  Measure.reset_peak_rss ();
  let units, client_peak =
    Measure.units ~seconds (fun () ->
        match Served.cold served_exps with u -> Some u | exception _ -> None)
  in
  let ok_units = List.filter_map Fun.id units in
  let direct = Sweep.cold served_exps in
  let direct_out = Sweep.output direct and direct_ok = sweep_ok direct in
  let direct_cells = sweep_cells direct in
  let cells = function
    | Some (_, sw, _) -> max (Served.cells sw) direct_cells
    | None -> direct_cells
  in
  let failed = function
    | Some (_, sw, _) when direct_ok && sw.Served.output = direct_out ->
      Served.count Served.P.P_failed sw
    | u -> cells u
  in
  let median_of f =
    if ok_units = [] then nan else Stats.median (Array.of_list (List.map f ok_units))
  in
  let peak =
    match ok_units with
    | (_, _, (d, w)) :: _ -> client_peak +. d.Served.hwm_mb +. w.Served.hwm_mb
    | [] -> nan
  in
  {
    Report.workload = "tables-served";
    attempted = List.fold_left (fun acc u -> acc + cells u) 0 units;
    failed = List.fold_left (fun acc u -> acc + failed u) 0 units;
    metrics =
      Report.
        [
          m "setup_s" "s" (median_of (fun (s, _, _) -> s));
          m "sweep_s" "s" (median_of (fun (_, sw, _) -> sw.Served.sweep_s));
          m "peak_rss_mb" "MB" peak;
        ];
    notes =
      [
        ("direct_sweep_s", direct.sweep_s, "s");
        ("sweeps", count (List.length units), "count");
      ];
  }

(* The worker is another process, so the engine phases and counts are
   taken from a direct sweep of the same cells, and the GC figures are
   the worker's own over one untraced served sweep. *)
let tables_served_traced () =
  let untraced_sweep () = Span.off (fun () -> Served.cold served_exps) in
  let traced_sweep () =
    let mark = !Span.next_id in
    let _, sw, _ = Served.cold served_exps in
    (sw, Span.duration (List.hd (Span.named "serve.sweep" (Span.since mark))))
  in
  (* untraced and traced sweeps alternate, untraced first and last *)
  let _, plain, (_, plain_worker) = untraced_sweep () in
  let pairs =
    List.init Measure.mismatch_pairs (fun _ ->
        let t = traced_sweep () in
        let _, sw, _ = untraced_sweep () in
        (t, sw))
  in
  let untraced = plain :: List.map snd pairs in
  let traced_all = List.map (fun ((sw, _), _) -> sw) pairs in
  let overhead =
    Measure.mismatch
      ~root:(List.map (fun ((_, r), _) -> r) pairs)
      ~untraced:(List.map (fun sw -> sw.Served.sweep_s) untraced)
  in
  let engine_direct, engine_m =
    engine_layers (fun () -> Span.off (fun () -> Sweep.cold served_exps))
  in
  let direct, warm = Span.off (fun () -> Sweep.cold_then_warm served_exps) in
  let _, _, replay_m = replay_layers Replay.probe_cells in
  let e1 = Span.off (fun () -> Sweep.cold [ "E1" ]) in
  let pool_ok, pool_m = pool_layer ~e1_jobs1_s:e1.sweep_s in
  let strat_ok, strat_m = cell_world_layers () in
  let out = Sweep.output direct in
  let ok =
    sweep_ok direct && sweep_ok warm && sweep_ok engine_direct
    && List.for_all (fun sw -> sw.Served.output = out) (untraced @ traced_all)
    && sweep_ok e1 && pool_ok && strat_ok
    && overhead <= Measure.mismatch_tolerance
  in
  ( List.fold_left (fun acc sw -> acc + Served.cells sw) 0 (untraced @ traced_all),
    ok,
    replay_m @ engine_m @ strat_m @ harness_store_layers direct warm @ [ pool_m ]
    @ serve_layers ~served_s:plain.sweep_s ~direct_s:direct.sweep_s plain
    @ gc_layers ~gc:plain_worker.Served.gc ~overhead )

(* --- beacon-* --- *)

let beacon_traced ~adversary ~seed =
  let ok, beacon_m = Beacon.traced ~adversary ~seed in
  let _, _, replay_m = replay_layers Replay.probe_cells in
  let replay_m =
    List.filter
      (fun x ->
        not (List.mem x.Report.name [ "graph.gen_s"; "graph.edges"; "detect.build_s" ]))
      replay_m
  in
  let e1, e1_warm = Span.off (fun () -> Sweep.cold_then_warm [ "E1" ]) in
  let pool_ok, pool_m = pool_layer ~e1_jobs1_s:e1.sweep_s in
  let serve_ok, serve_m = serve_probe serve_probe_exps in
  ( (2 * Measure.mismatch_pairs) + 1 + List.length Strategy.variants,
    ok && sweep_ok e1 && sweep_ok e1_warm && pool_ok && serve_ok,
    beacon_m @ replay_m @ harness_store_layers e1 e1_warm @ [ pool_m ] @ serve_m )

(* --- dispatch --- *)

type workload = {
  name : string;
  e2e : seed:int -> seconds:float -> Report.t;
  traced : seed:int -> int * bool * Report.metric list;  (* attempted, correct, metrics *)
}

let beacon name adversary =
  {
    name;
    e2e = (fun ~seed ~seconds -> Beacon.e2e ~name ~adversary ~seed ~seconds);
    traced = (fun ~seed -> beacon_traced ~adversary ~seed);
  }

let all =
  [
    {
      name = "tables-cold";
      e2e = (fun ~seed:_ ~seconds -> tables_cold_e2e ~seconds);
      traced = (fun ~seed:_ -> tables_cold_traced ());
    };
    {
      name = "tables-served";
      e2e = (fun ~seed:_ ~seconds -> tables_served_e2e ~seconds);
      traced = (fun ~seed:_ -> tables_served_traced ());
    };
    beacon "beacon-bernoulli-32k" (Rn_sim.Adversary.bernoulli 0.5);
    beacon "beacon-spiteful-32k" Rn_sim.Adversary.spiteful;
  ]

(* The traced run as a report: exactly the per-layer metrics, in order. *)
let traced_report w ~seed =
  Span.start_run ();
  let attempted, ok, metrics = w.traced ~seed in
  let find name =
    match List.find_opt (fun x -> x.Report.name = name) metrics with
    | Some x -> x
    | None -> failwith ("perfbench: traced run produced no " ^ name)
  in
  {
    Report.workload = w.name;
    attempted = max 1 attempted;
    failed = (if ok then 0 else max 1 attempted);
    metrics = List.map find per_layer;
    notes = [];
  }
