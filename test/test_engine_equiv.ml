(* Differential tests for the engine: [Engine.run] (live worklist, wake
   buckets, idle parking, silent-round fast-forward, cached detectors,
   per-round adversary derivation) must agree *exactly* — same
   [outputs], [returns], [rounds], [decided_round], [stats],
   [timed_out] — with [Engine.run_reference], the straightforward
   full-scan loop, across random graphs, seeds, wake schedules,
   adversaries, stop conditions and bodies (scripted send/listen/idle
   mixes, MIS, TDMA/CCDS, flooding); [idle] and [listen ~upto] must
   equal the silent-sync loops they stand for.  The delivery kernel is certified
   here too; the other evaluation strategies have their own suites over
   the same scaffolding ([Equiv]). *)

open Equiv

(* --- whole-run differentials ------------------------------------------- *)

let prop_random_bodies =
  QCheck.Test.make ~name:"run = run_reference (random send/listen/idle bodies)" ~count:150
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:12 ~max_rounds:120 case in
      let cfg = config_of s in
      let body = random_body ~steps:12 ~max_idle:6 in
      let fast = E.run cfg body in
      let oracle = E.run_reference cfg body in
      let unrolled = E.run cfg (random_body ~unroll:true ~steps:12 ~max_idle:6) in
      if fast <> oracle then QCheck.Test.fail_reportf "run <> run_reference: %s" (pp_scenario s);
      if fast <> unrolled then
        QCheck.Test.fail_reportf "idle/listen <> unrolled silent syncs: %s" (pp_scenario s);
      true)

(* Sparse wakes, long idles and long listens: the engine fast-forwards
   whole stretches of silent rounds in one jump; the reference grinds
   through each round (and consults the adversary in all of them), and
   the unrolled body syncs through them.  Results must still match. *)
let prop_fast_forward =
  QCheck.Test.make ~name:"silent-round fast-forward never changes results" ~count:60
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:400 ~max_rounds:3_000 case in
      let s = { s with stop = Rn_sim.Engine.All_done } in
      let cfg = config_of s in
      let body listen ctx =
        let rng = E.rng ctx in
        let heard = ref [] in
        for _ = 1 to 3 do
          E.idle ctx (20 + Rng.int rng 200);
          (match E.sync ctx (Some (E.me ctx)) with E.Recv m -> heard := m :: !heard | _ -> ());
          (match E.sync ctx None with E.Recv m -> heard := m :: !heard | _ -> ());
          match listen ctx ~upto:(20 + Rng.int rng 300) with
          | Some (j, m) -> heard := m :: j :: !heard
          | None -> heard := -1 :: !heard
        done;
        !heard
      in
      let fast = E.run cfg (body E.listen) in
      let oracle = E.run_reference cfg (body E.listen) in
      let unrolled = E.run cfg (body unrolled_listen) in
      if fast <> oracle then QCheck.Test.fail_reportf "fast-forward mismatch: %s" (pp_scenario s);
      if fast <> unrolled then
        QCheck.Test.fail_reportf "listen <> unrolled silent syncs: %s" (pp_scenario s);
      if fast.E.stats.silent_rounds <> oracle.E.stats.silent_rounds then
        QCheck.Test.fail_reportf "silent_rounds mismatch: %s" (pp_scenario s);
      true)

(* Flooding: one informed source, everyone forwards what they heard with
   probability 1/2.  Exercises Recv payload paths under every adversary. *)
let prop_flood =
  QCheck.Test.make ~name:"run = run_reference (flood body)" ~count:80 QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:6 ~max_rounds:500 case in
      let s = { s with stop = Rn_sim.Engine.At_round 40 } in
      let cfg = config_of s in
      let body ctx =
        let token = ref (if E.me ctx = 0 then Some 0 else None) in
        let hops = ref [] in
        for _ = 1 to 40 do
          let send =
            match !token with
            | Some t when Rng.bool (E.rng ctx) 0.5 -> Some (t + 1)
            | _ -> None
          in
          match E.sync ctx send with
          | E.Recv t ->
            hops := t :: !hops;
            if !token = None then begin
              token := Some t;
              E.output ctx 1
            end
          | E.Own | E.Silence -> ()
        done;
        !hops
      in
      let fast = E.run cfg body in
      let oracle = E.run_reference cfg body in
      if fast <> oracle then QCheck.Test.fail_reportf "flood mismatch: %s" (pp_scenario s);
      true)

let prop_mis =
  QCheck.Test.make ~name:"run = run_reference (MIS body)" ~count:25 QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:1 ~max_rounds:100_000 case in
      let cfg = radio_config s ~stop:(mis_stop s) in
      let fast = R.run cfg mis_body in
      let oracle = R.run_reference cfg mis_body in
      if fast <> oracle then QCheck.Test.fail_reportf "MIS mismatch: %s" (pp_scenario s);
      true)

let prop_tdma =
  QCheck.Test.make ~name:"run = run_reference (TDMA/CCDS body)" ~count:20 QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:1 ~max_rounds:100_000 case in
      let cfg = radio_config s ~stop:R.All_done in
      let body ctx = Core.Tdma_ccds.body Core.Params.default ctx in
      let fast = R.run cfg body in
      let oracle = R.run_reference cfg body in
      if fast <> oracle then QCheck.Test.fail_reportf "TDMA mismatch: %s" (pp_scenario s);
      true)

(* One moderate-scale pin: a geometric n=128 MIS run catches
   size-dependent bookkeeping slips (heap ordering, wake-pointer drift,
   scratch reuse). *)
let test_mis_n128 () =
  let dual =
    Gen.geometric ~rng:(Rng.create 7)
      (Gen.default_spec ~n:128 ~side:(Gen.side_for_degree ~n:128 ~target_degree:12) ())
  in
  let params = Core.Params.default in
  let stop = R.At_round (Core.Mis.schedule_rounds params ~n:(Dual.n dual)) in
  let cfg =
    R.config ~adversary:(Adversary.bernoulli 0.5) ~seed:41 ~stop ~detector:(detector_of dual)
      dual
  in
  let fast = R.run cfg mis_body in
  let oracle = R.run_reference cfg mis_body in
  Alcotest.(check bool) "identical results at n=128" true (fast = oracle)

(* --- fast-forward bookkeeping ------------------------------------------ *)

let path2 = Dual.classic (Gen.path 2)

let test_far_wake_jump () =
  let cfg = E.config ~wake:[| 1; 300 |] ~detector:(detector_of path2) path2 in
  let body ctx = ignore (E.sync ctx (Some (E.me ctx))) in
  let fast = E.run cfg body in
  let oracle = E.run_reference cfg body in
  Alcotest.(check bool) "identical results" true (fast = oracle);
  Alcotest.(check int) "runs to the late wake" 300 fast.E.rounds;
  (* rounds 2..299 have no broadcaster: fast-forwarded, still counted *)
  Alcotest.(check int) "silent rounds counted" 298 fast.E.stats.silent_rounds

let test_idle_past_stop () =
  (* A fiber idling beyond At_round: the run ends mid-stretch. *)
  let cfg =
    E.config ~stop:(Rn_sim.Engine.At_round 10) ~detector:(detector_of path2) path2
  in
  let body ctx =
    ignore (E.sync ctx (Some (E.me ctx)));
    E.idle ctx 1_000;
    E.round ctx
  in
  let fast = E.run cfg body in
  let oracle = E.run_reference cfg body in
  Alcotest.(check bool) "identical results" true (fast = oracle);
  Alcotest.(check int) "stopped at 10" 10 fast.E.rounds;
  Alcotest.(check bool) "no return yet" true (fast.E.returns = [| None; None |])

(* A stretch too long for the round counter must not wrap its heap key:
   a negative key would sit at the heap top, never come due, and starve
   every other parked fiber.  Fiber 0 parks "forever" in round 2; fibers
   1 and 2 idle two rounds and then broadcast in round 3. *)
let test_park_key_saturates () =
  let clique3 = Dual.classic (Gen.clique 3) in
  let cfg = E.config ~stop:(Rn_sim.Engine.At_round 10) ~detector:(detector_of clique3) clique3 in
  List.iter
    (fun (name, forever) ->
      let body ctx =
        if E.me ctx = 0 then begin
          ignore (E.sync ctx None);
          forever ctx;
          E.round ctx
        end
        else begin
          E.idle ctx 2;
          ignore (E.sync ctx (Some (E.me ctx)));
          E.round ctx
        end
      in
      let fast = E.run cfg body in
      let oracle = E.run_reference cfg body in
      Alcotest.(check bool) (name ^ ": identical results") true (fast = oracle);
      Alcotest.(check (array (option int)))
        (name ^ ": broadcasters returned") [| None; Some 3; Some 3 |] fast.E.returns;
      Alcotest.(check int) (name ^ ": sends") 2 fast.E.stats.sends)
    [
      ("idle max_int", fun ctx -> E.idle ctx max_int);
      ("listen max_int", fun ctx -> ignore (E.listen ctx ~upto:max_int));
    ]

let test_observer_disables_jump () =
  (* With an observer every round must be materialised and observed. *)
  let seen = ref [] in
  let cfg =
    E.config ~wake:[| 1; 5 |]
      ~observer:(fun v -> seen := (v.E.view_round, Array.length v.E.view_broadcasters) :: !seen)
      ~detector:(detector_of path2) path2
  in
  let body ctx = ignore (E.sync ctx (Some (E.me ctx))) in
  ignore (E.run cfg body);
  Alcotest.(check (list (pair int int)))
    "observer saw every round" [ (1, 1); (2, 0); (3, 0); (4, 0); (5, 1) ] (List.rev !seen)

(* --- listen ---------------------------------------------------------------- *)

(* [check_listen] runs [body] under [cfg] through [run] (with metrics),
   [run_reference] and every delivery path, and returns the fast result
   and its metrics snapshot. *)
let check_listen ~name cfg body =
  let fast, snap = with_metrics (fun () -> E.run cfg body) in
  Alcotest.(check bool) (name ^ ": = run_reference") true (fast = E.run_reference cfg body);
  List.iter
    (fun kernel ->
      Alcotest.(check bool)
        (name ^ ": kernel path")
        true
        (E.run { cfg with E.kernel } body = fast))
    [ `On; `Off ];
  (fast, snap)

(* Fiber 1 listens for 3 rounds; fiber 0 idles 2 and broadcasts in round
   3, the listen's last round: a reception there is [Some (3, _)], not a
   timeout, and wakes the listener once. *)
let test_listen_last_round () =
  let cfg = E.config ~detector:(detector_of path2) path2 in
  let body ctx =
    if E.me ctx = 0 then begin
      E.idle ctx 2;
      ignore (E.sync ctx (Some 7));
      (None, E.round ctx)
    end
    else
      let r = E.listen ctx ~upto:3 in
      (r, E.round ctx)
  in
  let fast, snap = check_listen ~name:"last round" cfg body in
  Alcotest.(check (option (pair (option (pair int int)) int)))
    "received in round 3" (Some (Some (3, 7), 3)) fast.E.returns.(1);
  Alcotest.(check int) "one listen wake" 1 (counter snap "engine.listen_wakes");
  (* fiber 0: one idle end, one sync; fiber 1: one wake *)
  Alcotest.(check int) "fiber steps" 3 (counter snap "engine.fiber_steps")

(* Fiber 1 wakes in round 4 and listens at once: round 4 is the first
   round of its stretch, and fiber 0's broadcast in it is [Some (1, _)]. *)
let test_listen_in_wake_round () =
  let cfg = E.config ~wake:[| 1; 4 |] ~detector:(detector_of path2) path2 in
  let body ctx =
    if E.me ctx = 0 then begin
      E.idle ctx 3;
      ignore (E.sync ctx (Some 5));
      None
    end
    else E.listen ctx ~upto:10
  in
  let fast, _ = check_listen ~name:"wake round" cfg body in
  Alcotest.(check (option (option (pair int int))))
    "received in its first round" (Some (Some (1, 5))) fast.E.returns.(1);
  Alcotest.(check int) "run ends in round 4" 4 fast.E.rounds

(* A run stopped by [At_round] inside a listen: the fiber never returns,
   and the silent stretch is fast-forwarded yet counted. *)
let test_listen_past_stop () =
  let cfg = E.config ~stop:(Rn_sim.Engine.At_round 10) ~detector:(detector_of path2) path2 in
  let body ctx =
    ignore (E.sync ctx (Some (E.me ctx)));
    E.listen ctx ~upto:1_000
  in
  let fast, _ = check_listen ~name:"past stop" cfg body in
  Alcotest.(check int) "stopped at 10" 10 fast.E.rounds;
  Alcotest.(check bool) "no return yet" true (fast.E.returns = [| None; None |]);
  Alcotest.(check int) "silent rounds counted" 9 fast.E.stats.silent_rounds

(* [upto <= 0] is [None] with no effect performed, like [idle 0]: the
   fiber returns in its wake step and nothing is ever resumed. *)
let test_listen_nonpositive () =
  let cfg = E.config ~detector:(detector_of path2) path2 in
  let body ctx =
    let a = E.listen ctx ~upto:0 in
    let b = E.listen ctx ~upto:(-3) in
    E.idle ctx 0;
    (a, b, E.round ctx)
  in
  let fast, snap = check_listen ~name:"upto <= 0" cfg body in
  Alcotest.(check bool) "None, None, round 0" true
    (fast.E.returns = [| Some (None, None, 0); Some (None, None, 0) |]);
  Alcotest.(check int) "no continuation resumed" 0 (counter snap "engine.fiber_steps")

(* --- delivery kernel ---------------------------------------------------- *)

let prop_kernel_equiv =
  prop_strategy ~name:"kernel `On = `Off = run_reference" ~count:200
    (arb_strategy ~kernel:[ `On; `Off ] ())

let prop_kernel_mis =
  QCheck.Test.make ~name:"kernel `On = `Off (MIS body)" ~count:15 QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:1 ~max_rounds:100_000 case in
      let run kernel =
        R.run (radio_config ~st:{ auto with kernel } s ~stop:(mis_stop s)) mis_body
      in
      if run `On <> run `Off then QCheck.Test.fail_reportf "MIS mismatch: %s" (pp_scenario s);
      true)

let test_kernel_n512 () =
  check_circulant512 ~name:"identical results at n=512"
    (circulant512_beacon { auto with kernel = `On })
    (circulant512_beacon { auto with kernel = `Off })

let () =
  Alcotest.run "engine_equiv"
    [
      ( "differential",
        [
          qtest prop_random_bodies;
          qtest prop_fast_forward;
          qtest prop_flood;
          qtest prop_mis;
          qtest prop_tdma;
          Alcotest.test_case "run = run_reference (MIS, n=128)" `Quick test_mis_n128;
        ] );
      ( "fast-forward",
        [
          Alcotest.test_case "far wake jump" `Quick test_far_wake_jump;
          Alcotest.test_case "idle past stop" `Quick test_idle_past_stop;
          Alcotest.test_case "observer disables jump" `Quick test_observer_disables_jump;
          Alcotest.test_case "park key saturates" `Quick test_park_key_saturates;
        ] );
      ( "listen",
        [
          Alcotest.test_case "reception in the last round" `Quick test_listen_last_round;
          Alcotest.test_case "listen in the wake round" `Quick test_listen_in_wake_round;
          Alcotest.test_case "listen past stop" `Quick test_listen_past_stop;
          Alcotest.test_case "upto <= 0 performs no effect" `Quick test_listen_nonpositive;
        ] );
      ( "delivery",
        [
          qtest prop_kernel_equiv;
          qtest prop_kernel_mis;
          Alcotest.test_case "circulant n=512 pin" `Quick test_kernel_n512;
        ] );
    ]
