(* The sharded resume loop: resume shards against the all-scalar run and
   [Engine.run_reference] (the n = 1300 circulant family makes the
   1024-fiber gate engage in some rounds and decline in others), sink
   forcing, and the real MIS/TDMA-CCDS schedules under drawn strategies. *)

open Equiv

let prop_resume_equiv =
  prop_strategy ~circulant_every:4 ~name:"resume shards k = scalar = reference" ~count:120
    (arb_strategy ())

(* Half the cases are the circulant family, where the untraced twin
   shards its resume rounds. *)
let prop_resume_traced_forcing =
  QCheck.Test.make ~name:"traced (forced scalar) = untraced sharded" ~count:40
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~circulant_every:2 ~max_wake:8 ~max_rounds:5_000 case in
      let st = { auto with resume_shards = 4 } in
      let sink = Events.create () in
      let traced = E.run (config_of ~sink ~st s) strategy_body in
      let untraced = E.run (config_of ~st s) strategy_body in
      if traced <> untraced then
        QCheck.Test.fail_reportf "traced <> untraced: %s" (pp_scenario s);
      if Events.emitted sink = 0 then
        QCheck.Test.fail_reportf "sink saw no events: %s" (pp_scenario s);
      true)

(* Fixed-seed twin of the circulant family: 3 and 4 resume shards do
   not divide the live-fiber count, so slices are uneven, the gate must
   engage in some rounds and decline in others, and receptions wake
   parked listeners. *)
let test_resume_n1300 () =
  let s =
    {
      dual = circulant ~n:circulant_n ~rel_k:3 ~gray_k:2;
      shape = "circulant";
      adv_name = "bernoulli 0.5";
      adv = Adversary.bernoulli 0.5;
      wake = None;
      stop = Rn_sim.Engine.All_done;
      seed = 11;
      max_rounds = 5_000;
    }
  in
  let scalar = E.run (config_of ~st:all_scalar s) strategy_body in
  Alcotest.(check bool) "deliveries happened" true (scalar.E.stats.deliveries > 0);
  List.iter
    (fun k ->
      let st = { auto with resume_shards = k } in
      let r, snap = with_metrics (fun () -> E.run (config_of ~st s) strategy_body) in
      let sharded = counter snap "engine.resume_sharded_rounds" in
      Alcotest.(check bool)
        (Printf.sprintf "identical results, resume shards=%d" k)
        true (r = scalar);
      Alcotest.(check bool)
        (Printf.sprintf "gate engaged in %d of %d rounds" sharded r.E.rounds)
        true
        (0 < sharded && sharded < r.E.rounds);
      Alcotest.(check bool) "listeners woken" true (counter snap "engine.listen_wakes" > 0))
    [ 3; 4 ]

let test_resume_config_validation () =
  let dual = Dual.classic (Gen.clique 4) in
  Alcotest.check_raises "resume_shards = 0 rejected"
    (Invalid_argument "Engine.config: resume_shards < 1") (fun () ->
      ignore (E.config ~resume_shards:0 ~detector:(detector_of dual) dual))

let algo_duals =
  [|
    ("clique 12", Dual.classic (Gen.clique 12));
    ("star 17", Dual.classic (Gen.star 17));
    ("path 16", Dual.classic (Gen.path 16));
    ("dense 14", build_dual ~n:14 ~rel_w:5 ~gray_w:3 7);
  |]

(* MIS and TDMA-CCDS over the Msg protocol: a drawn strategy (resume
   shards included) against the all-scalar run. *)
let prop_schedule ~name ~count body =
  QCheck.Test.make ~name ~count
    QCheck.(pair small_nat (arb_strategy ()))
    (fun (case, st) ->
      let rng = Rng.create (0x415 + case) in
      let dual_name, dual = algo_duals.(Rng.int rng (Array.length algo_duals)) in
      let adv_name, adv = adversaries.(Rng.int rng (Array.length adversaries)) in
      let s =
        {
          dual;
          shape = dual_name;
          adv_name;
          adv;
          wake = None;
          stop = Rn_sim.Engine.All_done;
          seed = Rng.int rng 1000;
          max_rounds = 2_000_000;
        }
      in
      let run st = R.run (radio_config ~st s ~stop:R.All_done) body in
      if run st <> run all_scalar then
        QCheck.Test.fail_reportf "%s <> all-scalar: %s" (pp_strategy st) (pp_scenario s);
      true)

let prop_mis_schedule =
  prop_schedule ~name:"MIS: resume shards k = scalar" ~count:30 mis_body

let prop_tdma_schedule =
  prop_schedule ~name:"TDMA-CCDS: resume shards k = scalar" ~count:15 (fun ctx ->
      Core.Tdma_ccds.body Core.Params.default ctx)

let () =
  Alcotest.run "resume-shard"
    [
      ( "sharded-resume",
        [
          qtest prop_resume_equiv;
          qtest prop_resume_traced_forcing;
          Alcotest.test_case "circulant n=1300 pin" `Quick test_resume_n1300;
          Alcotest.test_case "config validation" `Quick test_resume_config_validation;
        ] );
      ("real-schedules", [ qtest prop_mis_schedule; qtest prop_tdma_schedule ]);
    ]
