(* The S1 beacon on the S1 n=32768 world: every process runs
   [sync_p 0.25] for 128 rounds under engine defaults.  Runs call the S1
   engine instantiation's [run] directly, with no observer, registry or
   Timing ([Exp_scale.measure] switches on both). *)

module S1 = Rn_harness.Exp_scale
module E = S1.E
module H = Rn_harness.Harness
module Dual = Rn_graph.Dual
module Graph = Rn_graph.Graph
module Stats = Rn_util.Stats

let n = 32768

(* --seed 0 gives exactly the S1 world and engine seed. *)
let world_seed seed = 0x5CA1E + n + seed
let engine_seed seed = (n lxor 0x5EED) + seed

type world = { dual : Dual.t; det : Rn_detect.Detector.dynamic }

let build_world seed =
  let dual =
    Span.with_ "harness.geometric" (fun () ->
        H.geometric ~seed:(world_seed seed) ~n ~degree:(S1.degree_for n) ())
  in
  let det = Span.with_ "detector.perfect" (fun () -> H.perfect_detector dual) in
  { dual; det }

let config ?(s = Strategy.default) ~adversary ~seed w =
  E.config ~seed:(engine_seed seed) ~stop:(Rn_sim.Engine.At_round S1.beacon_rounds) ~adversary
    ~kernel:s.Strategy.kernel ~adv_kernel:s.Strategy.adv_kernel ~shards:s.Strategy.shards
    ~resume_shards:s.Strategy.resume_shards ~detector:w.det w.dual

let beacon ctx =
  let me = E.me ctx in
  for _ = 1 to S1.beacon_rounds do
    ignore (E.sync_p ctx S1.beacon_p me)
  done

let null_body ctx =
  for _ = 1 to S1.beacon_rounds do
    ignore (E.sync ctx None)
  done

let counts (r : _ E.result) = Strategy.counts_of r.E.stats
let node_rounds (c : Strategy.counts) = n * c.Strategy.rounds

(* Set-up time, sampled five times: the run's world, then four more
   worlds derived from the same seed, built after the measured runs so
   that their garbage stays out of the peak RSS.  How many connectivity
   resamples a world needs varies with its seed (most need none, a few
   need one or two, which doubles or triples the build), so the median
   of five builds is the typical build rather than the luck of one
   seed. *)
let extra_setup_samples seed =
  List.init 4 (fun j ->
      Gc.full_major ();
      snd (Measure.time (fun () -> build_world (seed + ((j + 1) * 1_000_003)))))

(* --- end-to-end run --- *)

let e2e ~name ~adversary ~seed ~seconds =
  Measure.reset_peak_rss ();
  let w, setup0 = Measure.time (fun () -> build_world seed) in
  let cfg = config ~adversary ~seed w in
  let units, peak =
    Measure.units ~seconds (fun () ->
        match Measure.time (fun () -> E.run cfg beacon) with
        | r, dt -> (Some (counts r), dt)
        | exception _ -> (None, 0.0))
  in
  (* the expected counts for this seed: the engine's O(n)-scan oracle *)
  let expected = counts (E.run_reference cfg beacon) in
  let setup_s = Stats.median (Array.of_list (setup0 :: extra_setup_samples seed)) in
  let failed = List.length (List.filter (fun (c, _) -> c <> Some expected) units) in
  let walls = List.filter_map (fun (c, dt) -> Option.map (fun _ -> dt) c) units in
  let sweep_s = if walls = [] then nan else Stats.median (Array.of_list walls) in
  {
    Report.workload = name;
    attempted = List.length units;
    failed;
    metrics =
      Report.
        [
          m "setup_s" "s" setup_s;
          m "sweep_s" "s" sweep_s;
          m "peak_rss_mb" "MB" peak;
        ];
    notes =
      [
        ("node_rounds_per_s", float_of_int (node_rounds expected) /. sweep_s, "1/s");
        ("runs", float_of_int (List.length units), "count");
      ];
  }

(* --- traced run --- *)

let phase_metrics (snap : Rn_util.Timing.snapshot) =
  let sec label =
    List.fold_left (fun acc (l, _, s) -> if l = label then acc +. s else acc) 0.0 snap.sections
  in
  let total = List.fold_left (fun acc (_, _, s) -> acc +. s) 0.0 snap.sections in
  Report.
    [
      m "engine.rounds" "count" (float_of_int snap.rounds);
      m "engine.ns_per_round" "ns"
        (if snap.rounds = 0 then 0.0 else total /. float_of_int snap.rounds *. 1e9);
      m "engine.wake_s" "s" (sec "wake");
      m "engine.collect_s" "s" (sec "collect");
      m "engine.adversary_s" "s" (sec "adversary");
      m "engine.deliver_s" "s" (sec "deliver");
      m "engine.resume_s" "s" (sec "resume");
    ]

let count_metrics (c : Strategy.counts) =
  Report.
    [
      m "engine.sends" "count" (float_of_int c.sends);
      m "engine.deliveries" "count" (float_of_int c.deliveries);
      m "engine.collisions" "count" (float_of_int c.collisions);
    ]

(* Run [f] with the Timing sections on; returns its result and the
   section snapshot. *)
let with_timing f =
  Rn_util.Timing.reset ();
  Rn_util.Timing.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Rn_util.Timing.set_enabled false) f in
  (r, Rn_util.Timing.snapshot ())

let traced ~adversary ~seed =
  let mark = !Span.next_id in
  let w = Span.with_ "beacon.world" (fun () -> build_world seed) in
  let world_spans = Span.since mark in
  let cfg = config ~adversary ~seed w in
  (* untraced reference runs (spans and Timing off) alternate with
     traced ones, untraced first and last *)
  let untraced_run () = Span.off (fun () -> Measure.time (fun () -> E.run cfg beacon)) in
  let traced_run () =
    let mark = !Span.next_id in
    let r, snap =
      with_timing (fun () -> Span.with_ "engine.run" (fun () -> E.run cfg beacon))
    in
    (r, snap, Span.duration (List.hd (Span.since mark)))
  in
  let (plain, plain_s), gc = Measure.gc_delta untraced_run in
  let pairs =
    List.init Measure.mismatch_pairs (fun _ ->
        let t = traced_run () in
        (t, untraced_run ()))
  in
  let untraced = (plain, plain_s) :: List.map snd pairs in
  let traced_all = List.map (fun ((r, _, root_s), _) -> (r, root_s)) pairs in
  let (_, snap, _), _ = List.hd pairs in
  let strat =
    Strategy.probe ~reps:1 (fun s -> counts (E.run (config ~s ~adversary ~seed w) beacon))
  in
  let switch_ns =
    let _, dt =
      Span.with_ "engine.null_body" (fun () -> Measure.time (fun () -> E.run cfg null_body))
    in
    dt /. float_of_int (n * S1.beacon_rounds) *. 1e9
  in
  let c = counts plain in
  let overhead =
    Measure.mismatch ~root:(List.map snd traced_all) ~untraced:(List.map snd untraced)
  in
  let ok =
    List.for_all (fun (r, _) -> counts r = c) (untraced @ traced_all)
    && strat.Strategy.agree
    && c.Strategy.rounds = S1.beacon_rounds
    && overhead <= Measure.mismatch_tolerance
  in
  let metrics =
    Report.
      [
        m "graph.gen_s" "s" (Span.total "harness.geometric" world_spans);
        m "graph.edges" "count"
          (float_of_int (Graph.edge_count (Dual.g w.dual) + Dual.gray_count w.dual));
        m "detect.build_s" "s" (Span.total "detector.perfect" world_spans);
      ]
    @ phase_metrics snap @ count_metrics c
    @ [ Report.m "engine.switch_ns_per_fiber_round" "ns" switch_ns ]
    @ Strategy.metrics strat
    @ Report.
        [
          m "gc.minor_collections" "count" (float_of_int gc.Measure.minor);
          m "gc.major_collections" "count" (float_of_int gc.Measure.major);
          m "gc.top_heap_mb" "MB" gc.Measure.top_heap_mb;
          m "trace.overhead_frac" "ratio" overhead;
        ]
  in
  (ok, metrics)
