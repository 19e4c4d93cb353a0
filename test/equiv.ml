(* Shared scaffolding for the engine-equivalence suites
   (test_engine_equiv, test_adversary_kernel, test_shard,
   test_resume_shard): one scenario generator, one scripted body and one
   strategy property.

   [Engine.run_reference] is the oracle for the round semantics.  Every
   evaluation strategy — the delivery kernel, the adversary kernel,
   delivery shards and resume shards — must reproduce it exactly, so
   [prop_strategy] draws a strategy record per case and checks
   strategy run = all-scalar run = [run_reference].  The suites
   instantiate it with the strategy family they certify.  A sparse
   circulant family at n = 1300 puts the live-fiber count on both sides
   of the resume-shard gate (1024) within one run, so resume sharding
   switches on and off mid-run.

   Since results are records of arrays/options/ints, whole-result
   structural equality is the comparison. *)

module Bitset = Rn_util.Bitset
module Metrics = Rn_util.Metrics
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual
module Gen = Rn_graph.Gen
module Detector = Rn_detect.Detector
module Adversary = Rn_sim.Adversary
module Events = Rn_sim.Events
module Rng = Rn_util.Rng
module R = Core.Radio

let qtest = QCheck_alcotest.to_alcotest

module M = struct
  type t = int

  let size_bits ~n:_ _ = 16
  let pp = Fmt.int
end

module E = Rn_sim.Engine.Make (M)

let adversaries =
  [|
    ("silent", Adversary.silent);
    ("all_gray", Adversary.all_gray);
    ("bernoulli 0.5", Adversary.bernoulli 0.5);
    ("bernoulli 0.9", Adversary.bernoulli 0.9);
    ("harassing 0.7", Adversary.harassing 0.7);
    ("spiteful", Adversary.spiteful);
    ("jamming", Adversary.jamming);
  |]

(* Random dual graph: each pair is reliable w.p. [rel_w]/10, gray w.p.
   [gray_w]/10, else absent.  [gray_w = 0] yields a classic dual. *)
let build_dual ~n ~rel_w ~gray_w gseed =
  let rng = Rng.create gseed in
  let es = ref [] and grays = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let r = Rng.int rng 10 in
      if r < rel_w then es := (u, v) :: !es
      else if r < rel_w + gray_w then grays := (u, v) :: !grays
    done
  done;
  Dual.make ~g:(Graph.of_edges n !es) ~gray:!grays ()

(* Circulant dual: node u is reliably linked to u±1..rel_k and gray-linked
   to the next [gray_k] nodes on either side (indices mod n). *)
let circulant ~n ~rel_k ~gray_k =
  let es = ref [] and grays = ref [] in
  for u = 0 to n - 1 do
    for k = 1 to rel_k + gray_k do
      let e = (min u ((u + k) mod n), max u ((u + k) mod n)) in
      if k <= rel_k then es := e :: !es else grays := e :: !grays
    done
  done;
  Dual.make ~g:(Graph.of_edges n !es) ~gray:!grays ()

(* --- one scenario generator -------------------------------------------- *)

type scenario = {
  dual : Dual.t;
  shape : string;
  adv_name : string;
  adv : Adversary.t;
  wake : int array option;
  stop : Rn_sim.Engine.stop_condition;
  seed : int;
  max_rounds : int;
}

let circulant_n = 1300

(* Random duals up to n = 40 in five shapes (sparse, dense, classic,
   all-gray, clique).  With [~circulant_every:k], one case in k is
   instead the sparse circulant at [circulant_n] with synchronous
   wake-up: its synced-fiber count starts above the resume-shard gate
   and the scripted body's idling drops it below. *)
let scenario_of ?(circulant_every = 0) ~max_wake ~max_rounds case_seed =
  let rng = Rng.create (0xE0_1AB + case_seed) in
  let adv_name, adv = adversaries.(Rng.int rng (Array.length adversaries)) in
  let stop =
    if Rng.bool rng 0.5 then Rn_sim.Engine.All_done
    else Rn_sim.Engine.At_round (5 + Rng.int rng 60)
  in
  let seed = Rng.int rng 10_000 in
  if circulant_every > 0 && Rng.int rng circulant_every = 0 then
    {
      dual = circulant ~n:circulant_n ~rel_k:3 ~gray_k:2;
      shape = "circulant";
      adv_name;
      adv;
      wake = None;
      stop;
      seed;
      max_rounds;
    }
  else
    let n = 2 + Rng.int rng 39 in
    let shape, dual =
      match Rng.int rng 5 with
      | 0 -> ("sparse", build_dual ~n ~rel_w:4 ~gray_w:3 (Rng.bits rng))
      | 1 -> ("dense", build_dual ~n ~rel_w:6 ~gray_w:3 (Rng.bits rng))
      | 2 -> ("classic", build_dual ~n ~rel_w:7 ~gray_w:0 (Rng.bits rng))
      | 3 -> ("all-gray", build_dual ~n ~rel_w:1 ~gray_w:8 (Rng.bits rng))
      | _ -> ("clique", Dual.classic (Gen.clique n))
    in
    let wake =
      if Rng.bool rng 0.4 then None
      else Some (Array.init n (fun _ -> 1 + Rng.int rng max_wake))
    in
    { dual; shape; adv_name; adv; wake; stop; seed; max_rounds }

let pp_scenario s =
  Printf.sprintf "n=%d shape=%s adv=%s wake=%s stop=%s seed=%d" (Dual.n s.dual) s.shape
    s.adv_name
    (match s.wake with
    | None -> "sync"
    | Some w -> String.concat "," (List.map string_of_int (Array.to_list w)))
    (match s.stop with
    | Rn_sim.Engine.All_done -> "all_done"
    | Rn_sim.Engine.All_decided -> "all_decided"
    | Rn_sim.Engine.At_round r -> Printf.sprintf "at_round %d" r)
    s.seed

(* --- evaluation strategies --------------------------------------------- *)

type strategy = {
  kernel : [ `Auto | `On | `Off ];
  adv_kernel : [ `Auto | `On | `Off ];
  shards : int;
  resume_shards : int;
}

(* [Engine.config]'s defaults *)
let auto = { kernel = `Auto; adv_kernel = `Auto; shards = 1; resume_shards = 1 }
let all_scalar = { kernel = `Off; adv_kernel = `Off; shards = 1; resume_shards = 1 }

let pp_strategy st =
  let mode = function `Auto -> "auto" | `On -> "on" | `Off -> "off" in
  Printf.sprintf "kernel=%s adv_kernel=%s shards=%d resume_shards=%d" (mode st.kernel)
    (mode st.adv_kernel) st.shards st.resume_shards

let modes = [ `Auto; `On; `Off ]

(* A strategy family: each field drawn from its list.  More shards than
   broadcasters or live fibers is legal (empty slices) and must still be
   exact, so shard counts run past small n on purpose. *)
let arb_strategy ?(kernel = modes) ?(adv_kernel = modes) ?(shards = [ 1; 2; 3; 4; 5 ])
    ?(resume_shards = [ 1; 2; 4 ]) () =
  QCheck.make ~print:pp_strategy
    QCheck.Gen.(
      map4
        (fun kernel adv_kernel shards resume_shards ->
          { kernel; adv_kernel; shards; resume_shards })
        (oneofl kernel) (oneofl adv_kernel) (oneofl shards) (oneofl resume_shards))

let detector_of dual = Detector.static (Detector.perfect (Dual.g dual))

let config_of ?sink ?(st = auto) s =
  E.config ~adversary:s.adv ~seed:s.seed ?wake:s.wake ~stop:s.stop ~max_rounds:s.max_rounds
    ?sink ~kernel:st.kernel ~adv_kernel:st.adv_kernel ~shards:st.shards
    ~resume_shards:st.resume_shards ~detector:(detector_of s.dual) s.dual

(* [listen ~upto:k] spelled out as the silent syncs it stands for:
   stop after the first [Recv]. *)
let unrolled_listen ctx ~upto =
  let rec go j =
    if j > upto then None
    else match E.sync ctx None with E.Recv m -> Some (j, m) | E.Own | E.Silence -> go (j + 1)
  in
  go 1

(* A scripted body drawing its actions from the process RNG: broadcast,
   listen, batched idle, listen-until-received, decide — logging every
   receive and every listen outcome, so any delivery divergence shows up
   in [returns].  With [unroll] the idle and listen stretches are
   replaced by the equivalent sequences of silent syncs, which must not
   change anything observable. *)
let random_body ?(unroll = false) ~steps ~max_idle ctx =
  let rng = E.rng ctx in
  let me = E.me ctx in
  let log = ref [] in
  let decided = ref false in
  let note = function
    | E.Recv m -> log := m :: !log
    | E.Own -> log := -1 :: !log
    | E.Silence -> ()
  in
  for _ = 1 to steps do
    match Rng.int rng 6 with
    | 0 | 1 -> note (E.sync ctx (Some me))
    | 2 | 3 -> note (E.sync ctx None)
    | 4 -> (
      let k = 1 + Rng.int rng max_idle in
      if Rng.bool rng 0.5 then
        if unroll then
          for _ = 1 to k do
            ignore (E.sync ctx None)
          done
        else E.idle ctx k
      else
        match (if unroll then unrolled_listen else E.listen) ctx ~upto:k with
        | Some (j, m) -> log := m :: (-10 - j) :: !log
        | None -> log := -2 :: !log)
    | _ ->
      if (not !decided) && Rng.int rng 3 = 0 then begin
        decided := true;
        E.output ctx (Rng.int rng 2)
      end;
      note (E.sync ctx None)
  done;
  (!log, E.round ctx)

let strategy_body = random_body ~steps:14 ~max_idle:4
let strategy_body_unrolled = random_body ~unroll:true ~steps:14 ~max_idle:4

let counter snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters)

(* Run with the metrics registry on, returning this run's records. *)
let with_metrics f =
  let was = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) (fun () -> Metrics.scoped f)

(* The real algorithm bodies, through the shared Radio instantiation. *)
let radio_config ?(st = auto) s ~stop =
  R.config ~adversary:s.adv ~seed:s.seed ~stop ~max_rounds:s.max_rounds ~kernel:st.kernel
    ~adv_kernel:st.adv_kernel ~shards:st.shards ~resume_shards:st.resume_shards
    ~detector:(detector_of s.dual) s.dual

let mis_body ctx = Core.Mis.body Core.Params.default ctx
let mis_stop s = R.At_round (Core.Mis.schedule_rounds Core.Params.default ~n:(Dual.n s.dual))

(* Every strategy of the family [arb] against the all-scalar run, the
   oracle, and the same strategy on the body with its idle and listen
   stretches unrolled into silent syncs.  One case in [circulant_every]
   is the n = 1300 circulant, on which the resume-shard gate must both
   engage and decline within the run (and sharded rounds wake
   listeners). *)
let prop_strategy ?(circulant_every = 16) ~name ~count arb =
  QCheck.Test.make ~name ~count
    QCheck.(pair (int_bound 100_000) arb)
    (fun (case, st) ->
      let s = scenario_of ~circulant_every ~max_wake:8 ~max_rounds:5_000 case in
      let strat, snap = with_metrics (fun () -> E.run (config_of ~st s) strategy_body) in
      let scalar = E.run (config_of ~st:all_scalar s) strategy_body in
      let oracle = E.run_reference (config_of s) strategy_body in
      let unrolled = E.run (config_of ~st s) strategy_body_unrolled in
      if strat <> scalar then
        QCheck.Test.fail_reportf "%s <> all-scalar: %s" (pp_strategy st) (pp_scenario s);
      if scalar <> oracle then
        QCheck.Test.fail_reportf "all-scalar <> run_reference: %s" (pp_scenario s);
      if strat <> unrolled then
        QCheck.Test.fail_reportf "%s: listen/idle <> unrolled silent syncs: %s" (pp_strategy st)
          (pp_scenario s);
      let sharded = counter snap "engine.resume_sharded_rounds" in
      let straddled = 0 < sharded && sharded < strat.E.rounds in
      if s.shape = "circulant" && st.resume_shards > 1 && not straddled then
        QCheck.Test.fail_reportf "resume gate did not straddle: %d of %d rounds sharded: %s"
          sharded strat.E.rounds (pp_scenario s);
      true)

(* --- the n=512 delivery pin --------------------------------------------- *)

(* Moderate-scale pin: a circulant graph at n=512 has every node at
   degree 64 — kernel rounds throughout — with enough words per row to
   catch top-word masking and word-indexing slips; 3 delivery shards do
   not divide the broadcaster count, so slices are uneven. *)
let circulant512_beacon st =
  let dual = circulant ~n:512 ~rel_k:32 ~gray_k:0 in
  let cfg =
    E.config ~adversary:(Adversary.bernoulli 0.5) ~seed:11 ~stop:(Rn_sim.Engine.At_round 30)
      ~kernel:st.kernel ~shards:st.shards ~detector:(detector_of dual) dual
  in
  E.run cfg (fun ctx ->
      let heard = ref 0 in
      for _ = 1 to 30 do
        (* ~2 expected senders per 64-neighbourhood: deliveries and
           collisions both occur in quantity *)
        match E.sync_p ctx 0.03 (E.me ctx) with
        | E.Recv _ -> incr heard
        | E.Own | E.Silence -> ()
      done;
      !heard)

let check_circulant512 ~name a b =
  Alcotest.(check bool) name true (a = b);
  Alcotest.(check bool) "deliveries happened" true (a.E.stats.deliveries > 0);
  Alcotest.(check bool) "collisions happened" true (a.E.stats.collisions > 0)
