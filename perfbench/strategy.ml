(* Evaluation-strategy probes: one world and one seed run under each
   strategy knob against its scalar twin, in the same process, with the
   registry on for both sides so the engagement counters can be read.
   Every variant must produce the same delivery counts (each strategy is
   a pure evaluation strategy), so a mismatch counts as a failure. *)

module Metrics = Rn_util.Metrics
module Stats = Rn_util.Stats

type setting = {
  kernel : [ `Auto | `On | `Off ];
  adv_kernel : [ `Auto | `On | `Off ];
  shards : int;
  resume_shards : int;
}

let default = { kernel = `Auto; adv_kernel = `Auto; shards = 1; resume_shards = 1 }

(* The variants, with the default twin first: at most 2 domains. *)
let variants =
  [
    ("default", default);
    ("kernel_off", { default with kernel = `Off });
    ("adv_kernel_off", { default with adv_kernel = `Off });
    ("shards2", { default with shards = 2 });
    ("resume_shards2", { default with resume_shards = 2 });
  ]

type counts = { sends : int; deliveries : int; collisions : int; rounds : int }

type t = {
  kernel_ratio : float;  (* kernel Auto / Off *)
  adv_kernel_ratio : float;  (* adv_kernel Auto / Off *)
  shards2_ratio : float;  (* shards 2 / 1 *)
  resume_shards2_ratio : float;  (* resume_shards 2 / 1 *)
  adv_kernel_rounds : int;  (* per default run *)
  sharded_rounds : int;  (* per shards-2 run *)
  resume_sharded_rounds : int;  (* per resume-shards-2 run *)
  agree : bool;
}

let counter snap name = Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters)

(* [run setting] performs one engine run and returns its counts.
   Variants are interleaved [reps] times so drift hits both twins. *)
let probe ~reps run =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  let samples =
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled was)
      (fun () ->
        List.concat
          (List.init reps (fun _ ->
               List.map
                 (fun (name, s) ->
                   let before = Metrics.snapshot () in
                   let c, dt =
                     Span.with_ ("strategy." ^ name) (fun () -> Measure.time (fun () -> run s))
                   in
                   (name, c, dt, Metrics.diff (Metrics.snapshot ()) before))
                 variants)))
  in
  let of_ name = List.filter (fun (n, _, _, _) -> n = name) samples in
  let med name =
    Stats.median (Array.of_list (List.map (fun (_, _, dt, _) -> dt) (of_ name)))
  in
  let per_run name cname =
    match of_ name with
    | [] -> 0
    | l ->
      List.fold_left (fun acc (_, _, _, snap) -> acc + counter snap cname) 0 l / List.length l
  in
  let base = med "default" in
  let first_counts = match samples with (_, c, _, _) :: _ -> Some c | [] -> None in
  {
    kernel_ratio = base /. med "kernel_off";
    adv_kernel_ratio = base /. med "adv_kernel_off";
    shards2_ratio = med "shards2" /. base;
    resume_shards2_ratio = med "resume_shards2" /. base;
    adv_kernel_rounds = per_run "default" "engine.adv_kernel_rounds";
    sharded_rounds = per_run "shards2" "engine.sharded_rounds";
    resume_sharded_rounds = per_run "resume_shards2" "engine.resume_sharded_rounds";
    agree = List.for_all (fun (_, c, _, _) -> Some c = first_counts) samples;
  }

let metrics t =
  Report.
    [
      m "engine.kernel_ratio" "ratio" t.kernel_ratio;
      m "adversary.kernel_ratio" "ratio" t.adv_kernel_ratio;
      m "engine.shards2_ratio" "ratio" t.shards2_ratio;
      m "engine.resume_shards2_ratio" "ratio" t.resume_shards2_ratio;
      m "engine.adv_kernel_rounds" "count" (float_of_int t.adv_kernel_rounds);
      m "engine.sharded_rounds" "count" (float_of_int t.sharded_rounds);
      m "engine.resume_sharded_rounds" "count" (float_of_int t.resume_sharded_rounds);
    ]

(* --- the n=128 tables-cold cell world: E1's n=128 rep-1 cell, with the
   MIS body it runs there --- *)

module R = Core.Radio

let cell_world () =
  let c = List.find (fun c -> c.Replay.n = 128 && c.Replay.rep = 1) Replay.e1_cells in
  let dual = Replay.world c in
  let det = Rn_detect.Detector.perfect (Rn_graph.Dual.g dual) in
  (c, dual, Rn_detect.Detector.static det)

let cell_config ?stop s (c, dual, detector) =
  R.config ~adversary:(Rn_sim.Adversary.bernoulli 0.5) ~seed:c.Replay.rep ?stop
    ~kernel:s.kernel ~adv_kernel:s.adv_kernel ~shards:s.shards ~resume_shards:s.resume_shards
    ~detector dual

let counts_of (st : Rn_sim.Engine.stats) =
  {
    sends = st.sends;
    deliveries = st.deliveries;
    collisions = st.collisions;
    rounds = st.rounds;
  }

let cell_world_probe w =
  probe ~reps:5 (fun s ->
      let res =
        R.run (cell_config s w) (fun ctx ->
            Core.Mis.body ~on_decide:(fun v -> R.output ctx v) Core.Params.default ctx)
      in
      counts_of res.R.stats)

(* Null-body baseline on the cell world: every fiber runs [sync None]
   for 128 rounds; seconds per fiber-round, median of 21 runs. *)
let cell_world_switch_ns ((c, _, _) as w) =
  let rounds = 128 in
  let cfg = cell_config ~stop:(Rn_sim.Engine.At_round rounds) default w in
  let body ctx =
    for _ = 1 to rounds do
      ignore (R.sync ctx None)
    done
  in
  let dts = List.init 21 (fun _ -> snd (Measure.time (fun () -> R.run cfg body))) in
  Stats.median (Array.of_list dts) /. float_of_int (c.Replay.n * rounds) *. 1e9
