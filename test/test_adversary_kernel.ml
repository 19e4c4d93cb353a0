(* The adversary kernel: [Adversary.choose_kernel] must pick exactly the
   gray edges [Adversary.choose] picks, at the API (random duals and
   broadcaster sets, shards 1/2/4, scratch reuse, word-boundary pins) and
   through whole engine runs against [Engine.run_reference]. *)

open Equiv

let kernel_policies =
  [| ("all_gray", Adversary.all_gray); ("spiteful", Adversary.spiteful); ("jamming", Adversary.jamming) |]

let random_broadcasters rng n =
  let p = [| 0.05; 0.3; 0.8 |].(Rng.int rng 3) in
  let l = ref [] in
  for v = n - 1 downto 0 do
    if Rng.bool rng p then l := v :: !l
  done;
  Array.of_list !l

(* Random duals x random broadcaster sets at shards 1/2/4, many
   consecutive rounds against one scratch, so stale scratch state shows. *)
let prop_choose_equiv =
  QCheck.Test.make ~name:"choose_kernel = choose (shards 1/2/4, scratch reuse)" ~count:120
    QCheck.(small_nat)
    (fun case ->
      let rng = Rng.create (0xADF0 + case) in
      let n = 2 + Rng.int rng 60 in
      let rel_w = 1 + Rng.int rng 4 and gray_w = 1 + Rng.int rng 5 in
      let dual = build_dual ~n ~rel_w ~gray_w (Rng.bits rng) in
      let ng = max 1 (Dual.gray_count dual) in
      let scratches =
        List.map (fun s -> (s, Adversary.make_scratch ~shards:s dual)) [ 1; 2; 4 ]
      in
      let adv_root = Rng.derive (Rng.create (Rng.bits rng)) 0x5EED in
      for round = 1 to 12 do
        let broadcasters = random_broadcasters rng n in
        Array.iter
          (fun (pname, adv) ->
            let scalar = Bitset.create ng in
            Adversary.choose adv ~round ~broadcasters dual (Rng.derive adv_root round)
              scalar;
            List.iter
              (fun (s, scratch) ->
                let masked = Bitset.create ng in
                Adversary.choose_kernel adv ~round ~broadcasters dual
                  (Rng.derive adv_root round) scratch masked;
                if not (Bitset.equal scalar masked) then
                  QCheck.Test.fail_reportf
                    "%s: kernel <> scalar at n=%d round=%d shards=%d (#bcast=%d)" pname n
                    round s (Array.length broadcasters))
              scratches)
          kernel_policies
      done;
      true)

let test_kernel_flags () =
  Alcotest.(check bool) "all_gray has kernel" true (Adversary.has_kernel Adversary.all_gray);
  Alcotest.(check bool) "spiteful has kernel" true (Adversary.has_kernel Adversary.spiteful);
  Alcotest.(check bool) "jamming has kernel" true (Adversary.has_kernel Adversary.jamming);
  Alcotest.(check bool) "bernoulli stays scalar" false
    (Adversary.has_kernel (Adversary.bernoulli 0.5));
  Alcotest.(check bool) "harassing stays scalar" false
    (Adversary.has_kernel (Adversary.harassing 0.5));
  Alcotest.(check bool) "silent stays scalar" false (Adversary.has_kernel Adversary.silent);
  let dual = build_dual ~n:40 ~rel_w:2 ~gray_w:4 7 in
  Alcotest.(check bool) "kernel_wins false without kernel" false
    (Adversary.kernel_wins (Adversary.bernoulli 0.5)
       ~broadcasters:(Array.init 40 Fun.id) dual);
  Alcotest.check_raises "choose_kernel raises without kernel"
    (Invalid_argument "Adversary.choose_kernel: policy has no kernel") (fun () ->
      Adversary.choose_kernel Adversary.silent ~round:1 ~broadcasters:[||] dual
        (Rng.create 0)
        (Adversary.make_scratch dual)
        (Bitset.create 1))

(* Word-boundary pin: a circulant dual at n=600 whose per-node gray
   ranges span several 63-bit words, all nodes broadcasting — the
   fill_range fast path does the bulk of the work. *)
let test_circulant_pin () =
  let n = 600 in
  let dual = circulant ~n ~rel_k:4 ~gray_k:20 in
  let ng = Dual.gray_count dual in
  let scratch = Adversary.make_scratch ~shards:3 dual in
  let everyone = Array.init n Fun.id in
  let rng = Rng.create 3 in
  Array.iter
    (fun (pname, adv) ->
      Array.iter
        (fun broadcasters ->
          let scalar = Bitset.create ng and masked = Bitset.create ng in
          Adversary.choose adv ~round:1 ~broadcasters dual rng scalar;
          Adversary.choose_kernel adv ~round:1 ~broadcasters dual rng scratch masked;
          Alcotest.(check bool)
            (Printf.sprintf "%s circulant n=600 #bcast=%d" pname (Array.length broadcasters))
            true (Bitset.equal scalar masked))
        [| everyone; [| 0; 1; 299; 599 |]; [| 42 |] |])
    kernel_policies

(* --- whole runs --------------------------------------------------------- *)

let prop_engine_equiv =
  prop_strategy ~name:"adv_kernel `On/`Off/`Auto x shards 1/2/4 = reference" ~count:100
    (arb_strategy ~shards:[ 1; 2; 4 ] ())

(* A sink forces the scalar delivery, adversary and resume paths; forcing
   must not change a single result. *)
let prop_traced_equiv =
  QCheck.Test.make ~name:"traced run = untraced (adv_kernel `On)" ~count:40
    QCheck.(small_nat)
    (fun case ->
      let s = scenario_of ~max_wake:8 ~max_rounds:5_000 case in
      let st = { auto with adv_kernel = `On; shards = 2 } in
      let plain = E.run (config_of ~st s) strategy_body in
      let sink = Events.create ~capacity:(1 lsl 12) () in
      let traced = E.run (config_of ~sink ~st s) strategy_body in
      if plain <> traced then
        QCheck.Test.fail_reportf "traced <> untraced: %s" (pp_scenario s);
      true)

let () =
  Alcotest.run "adversary-kernel"
    [
      ( "choose",
        [
          qtest prop_choose_equiv;
          Alcotest.test_case "kernel availability flags" `Quick test_kernel_flags;
          Alcotest.test_case "circulant n=600 pin" `Quick test_circulant_pin;
        ] );
      ("engine", [ qtest prop_engine_equiv; qtest prop_traced_equiv ]);
    ]
