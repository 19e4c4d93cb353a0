(* S1: large-n scaling of world construction and the delivery kernel.

   Unlike the E*/A* experiments this one measures *wall clock*, so it is
   deliberately NOT in the [All] registry and never touches the result
   store (a cached timing is a lie).  It exists to certify the two
   perf claims of the kernel PR at sweep scale:

     - world generation is O(n) expected (hash-grid [Gen.of_positions]),
       so the fitted exponent of gen seconds vs n should sit near 1;
     - simulation throughput survives large n: a beacon workload at
       constant expected per-node traffic should scale near-linearly in
       total work (rounds x n), i.e. per-round seconds ~ n^~1.

   Run it via [rn_cli scale] (quick: n up to 8192; --full: up to a
   million nodes).  [--resume-shards N] shards the fiber resume loop
   across N Pool domains; [--check] prints only the deterministic
   columns (counts, no timings), which is what lets
   scripts/strategy_smoke.sh byte-compare tables across kernel modes and
   resume-shard counts. *)

module Rng = Rn_util.Rng
module Table = Rn_util.Table
module Metrics = Rn_util.Metrics
module Timing = Rn_util.Timing
module Svg = Rn_util.Svg_plot
module Gen = Rn_graph.Gen
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual
module Detector = Rn_detect.Detector
open Harness

(* A trivial message type: the beacon workload only exercises delivery,
   not protocol logic. *)
module M = struct
  type t = int

  let size_bits ~n:_ _ = 16
  let pp = Fmt.int
end

module E = Rn_sim.Engine.Make (M)

let sizes = function
  | Quick -> [ 1024; 2048; 4096; 8192 ]
  | Full ->
    (* The top of the grid is the ROADMAP's million-node milestone: CSR
       worlds, off-heap bitsets and lazy detector rows keep one point's
       working set to a few hundred MB, so the full grid fits easily. *)
    [ 1024; 2048; 4096; 8192; 16384; 32768; 65536; 131072; 262144; 524288; 1048576 ]

(* Expected reliable degree must clear the geometric-connectivity
   threshold (~ln n) or [Gen.geometric]'s resampling loop dominates the
   gen timing at the top sizes; max(12, log2 n) stays a constant factor
   above it across the whole grid. *)
let degree_for n = max 12 (Rn_util.Ilog.log2_up n)
let beacon_rounds = 128
let beacon_p = 0.25

type row = {
  n : int;
  m : int; (* reliable edges *)
  gray : int;
  gen_s : float;
  wall_s : float; (* beacon workload, [beacon_rounds] rounds *)
  rps : float; (* rounds per second *)
  p50_bcast : int; (* per-round broadcaster histogram percentile *)
  p50_round_us : int; (* per-round wall-time histogram percentiles *)
  p95_round_us : int;
  sends : int;
  deliveries : int;
  collisions : int;
}

(* One grid point: generate the world, then run the beacon workload —
   every process syncs with probability [beacon_p] each round for
   [beacon_rounds] rounds, which keeps expected per-neighbourhood
   traffic constant as n grows (throughput is then work-bound, not
   contention-bound). *)
let measure ?(kernel = `Auto) ?(adv_kernel = `Auto) ?(resume_shards = 1)
    ?(adversary = Rn_sim.Adversary.bernoulli 0.5) n =
  let t0 = Timing.now () in
  let dual = geometric ~seed:(0x5CA1E + n) ~n ~degree:(degree_for n) () in
  let gen_s = Timing.now () -. t0 in
  let det = perfect_detector dual in
  (* Per-round wall time via the observer callback (called once per
     executed round): inter-callback deltas, bucketed like any other
     registry histogram.  The observer does not perturb delivery — it
     only disables silent-round fast-forward, and a beacon round is
     never silent. *)
  let round_times = ref [] in
  let run () =
    let last = ref (Timing.now ()) in
    round_times := [];
    let observer (_ : E.view) =
      let now = Timing.now () in
      round_times := int_of_float ((now -. !last) *. 1e6) :: !round_times;
      last := now
    in
    let cfg =
      E.config ~seed:(n lxor 0x5EED)
        ~stop:(Rn_sim.Engine.At_round beacon_rounds)
        ~adversary ~observer ~kernel ~adv_kernel ~resume_shards ~detector:det dual
    in
    E.run cfg (fun ctx ->
        let me = E.me ctx in
        for _ = 1 to beacon_rounds do
          ignore (E.sync_p ctx beacon_p me)
        done)
  in
  (* Per-round histograms ride on the metrics registry; [scoped] keeps
     this run's records separate from whatever the process accumulated. *)
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let (res, wall_s), snap =
    Metrics.scoped (fun () ->
        let t1 = Timing.now () in
        let r = run () in
        (r, Timing.now () -. t1))
  in
  Metrics.set_enabled was;
  let bcast_hist =
    match List.assoc_opt "engine.round_broadcasters" snap.Metrics.hists with
    | Some h -> h
    | None -> Metrics.hist_of_values []
  in
  let round_hist = Metrics.hist_of_values !round_times in
  {
    n;
    m = Graph.edge_count (Dual.g dual);
    gray = Dual.gray_count dual;
    gen_s;
    wall_s;
    rps = float_of_int beacon_rounds /. wall_s;
    p50_bcast = Metrics.percentile bcast_hist 0.5;
    p50_round_us = Metrics.percentile round_hist 0.5;
    p95_round_us = Metrics.percentile round_hist 0.95;
    sends = res.E.stats.Rn_sim.Engine.sends;
    deliveries = res.E.stats.Rn_sim.Engine.deliveries;
    collisions = res.E.stats.Rn_sim.Engine.collisions;
  }

let figure rows =
  Svg.create ~x_axis:Svg.Log ~y_axis:Svg.Log
    ~title:"S1: world build and per-round cost vs n" ~x_label:"n" ~y_label:"seconds" ()
  |> Svg.add_series ~label:"world gen"
       (List.map (fun r -> (float_of_int r.n, Float.max r.gen_s 1e-6)) rows)
  |> Svg.add_series ~label:"per beacon round"
       (List.map
          (fun r ->
            (float_of_int r.n, Float.max (r.wall_s /. float_of_int beacon_rounds) 1e-6))
          rows)

(* [run ?out scale]: measure the grid, render the table, and (with
   [?out]) write the log-log figure next to the F* ones.  [?sizes]
   overrides the grid; [?kernel]/[?adv_kernel]/[?resume_shards] select
   the evaluation strategy;
   [?check] renders only the deterministic columns so tables can be
   byte-compared across strategies. *)
let run ?out ?sizes:sizes_override ?(kernel = `Auto) ?(adv_kernel = `Auto)
    ?(resume_shards = 1) ?adversary ?(check = false) scale =
  let grid = match sizes_override with Some l -> l | None -> sizes scale in
  let rows =
    List.map
      (fun n ->
        let r = measure ~kernel ~adv_kernel ~resume_shards ?adversary n in
        (* between points: retire the previous world before building the
           next, so peak RSS holds one world, not two *)
        Gc.full_major ();
        r)
      grid
  in
  if check then begin
    (* Deterministic columns only: counts are byte-identical across
       kernel modes and resume-shard counts (every strategy is pure
       evaluation),
       timings are not.  Notes likewise carry no timing or strategy
       detail — two check tables from different strategies must compare
       equal byte-for-byte. *)
    let t = Table.create [ "n"; "m"; "gray"; "sends"; "deliveries"; "collisions" ] in
    List.iter
      (fun r ->
        Table.add_row t
          [
            Table.cell_int r.n;
            Table.cell_int r.m;
            Table.cell_int r.gray;
            Table.cell_int r.sends;
            Table.cell_int r.deliveries;
            Table.cell_int r.collisions;
          ])
      rows;
    {
      id = "S1";
      title = "Scaling: deterministic delivery counts (check mode)";
      body = Table.render t;
      notes =
        [
          Printf.sprintf "beacon workload: %d rounds, each process syncs w.p. %.2f"
            beacon_rounds beacon_p;
        ];
    }
  end
  else begin
  let t =
    Table.create
      [
        "n"; "m"; "gray"; "gen(s)"; "sim(s)"; "rounds/s"; "bcast p50"; "round p50us";
        "round p95us"; "deliveries";
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          Table.cell_int r.n;
          Table.cell_int r.m;
          Table.cell_int r.gray;
          Table.cell_float ~digits:3 r.gen_s;
          Table.cell_float ~digits:3 r.wall_s;
          Table.cell_float ~digits:1 r.rps;
          Table.cell_int r.p50_bcast;
          Table.cell_int r.p50_round_us;
          Table.cell_int r.p95_round_us;
          Table.cell_int r.deliveries;
        ])
    rows;
  let ns = List.map (fun r -> float_of_int r.n) rows in
  let notes =
    [
      note_power ~what:"world-gen seconds" ns
        (List.map (fun r -> Float.max r.gen_s 1e-6) rows);
      note_power ~what:"per-round seconds" ns
        (List.map (fun r -> Float.max (r.wall_s /. float_of_int beacon_rounds) 1e-6) rows);
      Printf.sprintf "beacon workload: %d rounds, each process syncs w.p. %.2f" beacon_rounds
        beacon_p;
      "expect both exponents near 1 (log-degree growth adds ~0.1-0.3): gen is \
       O(n.deg) expected (hash grid), the kernel makes a dense round \
       O(reach/word + senders)";
    ]
  in
  let notes =
    match out with
    | None -> notes
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir "S1.svg" in
      Svg.write (figure rows) path;
      notes @ [ Printf.sprintf "figure: %s" path ]
  in
  {
    id = "S1";
    title = "Scaling: O(n)-expected world build + word-parallel kernel";
    body = Table.render t;
    notes;
  }
  end
