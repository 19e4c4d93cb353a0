(* Differential tests for the engine: [Engine.run] (live worklist, wake
   buckets, idle parking, silent-round fast-forward, cached detectors,
   per-round adversary derivation) must agree *exactly* — same
   [outputs], [returns], [rounds], [decided_round], [stats],
   [timed_out] — with [Engine.run_reference], the straightforward
   full-scan loop, across random graphs, seeds, wake schedules,
   adversaries, stop conditions and bodies (scripted send/listen/idle
   mixes, MIS, TDMA/CCDS, flooding).  The delivery kernel is certified
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
      let unrolled = E.run cfg (random_body ~unroll_idle:true ~steps:12 ~max_idle:6) in
      if fast <> oracle then QCheck.Test.fail_reportf "run <> run_reference: %s" (pp_scenario s);
      if fast <> unrolled then
        QCheck.Test.fail_reportf "idle <> unrolled silent syncs: %s" (pp_scenario s);
      true)

(* Sparse wakes and long idles: the engine fast-forwards whole stretches of
   silent rounds in one jump; the reference grinds through each round (and
   consults the adversary in all of them).  Results must still match. *)
let prop_fast_forward =
  QCheck.Test.make ~name:"silent-round fast-forward never changes results" ~count:60
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:400 ~max_rounds:3_000 case in
      let s = { s with stop = Rn_sim.Engine.All_done } in
      let cfg = config_of s in
      let body ctx =
        let rng = E.rng ctx in
        let heard = ref 0 in
        for _ = 1 to 3 do
          E.idle ctx (20 + Rng.int rng 200);
          (match E.sync ctx (Some (E.me ctx)) with E.Recv _ -> incr heard | _ -> ());
          match E.sync ctx None with E.Recv _ -> incr heard | _ -> ()
        done;
        !heard
      in
      let fast = E.run cfg body in
      let oracle = E.run_reference cfg body in
      if fast <> oracle then QCheck.Test.fail_reportf "fast-forward mismatch: %s" (pp_scenario s);
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
        ] );
      ( "delivery",
        [
          qtest prop_kernel_equiv;
          qtest prop_kernel_mis;
          Alcotest.test_case "circulant n=512 pin" `Quick test_kernel_n512;
        ] );
    ]
