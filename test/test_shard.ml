(* The Bitset word layer under the delivery kernel and the sharded
   scatter (on- and off-heap accumulators, merges), and sharded delivery
   itself: any number of delivery shards, alone or with the forced
   kernel, against the all-scalar run and [Engine.run_reference]. *)

open Equiv

(* ---------------- Bitset once/twice accumulators ---------------- *)

(* The delivery kernel's and the sharded scatter's word layer: the
   (once, twice) pair is a pure function of the contribution multiset,
   and [acc2_merge_into] over any partition of the rows into shards
   reproduces the sequential pair bit for bit. *)

let bs cap l = Bitset.of_list cap l

let check_acc2 name ~cap rows ~exp_once ~exp_twice =
  let once = Bitset.create cap and twice = Bitset.create cap in
  List.iter (fun row -> Bitset.acc2_or_into ~once ~twice (bs cap row)) rows;
  Alcotest.(check (list int)) (name ^ ": once") exp_once (Bitset.to_list once);
  Alcotest.(check (list int)) (name ^ ": twice") exp_twice (Bitset.to_list twice)

let test_acc2_units () =
  check_acc2 "no senders" ~cap:130 [] ~exp_once:[] ~exp_twice:[];
  check_acc2 "one sender" ~cap:130 [ [ 0; 63; 129 ] ] ~exp_once:[ 0; 63; 129 ] ~exp_twice:[];
  check_acc2 "two disjoint" ~cap:130
    [ [ 0; 64 ]; [ 1; 65 ] ]
    ~exp_once:[ 0; 1; 64; 65 ] ~exp_twice:[];
  check_acc2 "two overlapping" ~cap:130
    [ [ 0; 63; 64 ]; [ 63; 64; 129 ] ]
    ~exp_once:[ 0; 63; 64; 129 ] ~exp_twice:[ 63; 64 ];
  (* saturation: a third and fourth sender must not clear the twice bit *)
  check_acc2 "three senders saturate" ~cap:130
    [ [ 5 ]; [ 5 ]; [ 5 ] ]
    ~exp_once:[ 5 ] ~exp_twice:[ 5 ];
  check_acc2 "four senders saturate" ~cap:130
    [ [ 5; 70 ]; [ 5 ]; [ 5; 70 ]; [ 5; 70 ] ]
    ~exp_once:[ 5; 70 ] ~exp_twice:[ 5; 70 ]

let test_acc2_add_matches_or () =
  (* element-wise feeding must equal set-wise feeding *)
  let cap = 100 in
  let rows = [ [ 1; 63; 64 ]; [ 2; 63 ]; [ 1; 99 ] ] in
  let o1 = Bitset.create cap and t1 = Bitset.create cap in
  List.iter (fun r -> Bitset.acc2_or_into ~once:o1 ~twice:t1 (bs cap r)) rows;
  let o2 = Bitset.create cap and t2 = Bitset.create cap in
  List.iter (List.iter (fun i -> Bitset.acc2_add ~once:o2 ~twice:t2 i)) rows;
  Alcotest.(check bool) "once equal" true (Bitset.equal o1 o2);
  Alcotest.(check bool) "twice equal" true (Bitset.equal t1 t2)

(* once = count >= 1 and twice = count >= 2, against naive counting *)
let acc2_counts_agree ~cap rows =
  let once = Bitset.create cap and twice = Bitset.create cap in
  let counts = Array.make cap 0 in
  List.iter
    (fun row ->
      let row = List.sort_uniq compare row in
      List.iter (fun i -> counts.(i) <- counts.(i) + 1) row;
      Bitset.acc2_or_into ~once ~twice (bs cap row))
    rows;
  let ok = ref true in
  for i = 0 to cap - 1 do
    if Bitset.mem once i <> (counts.(i) >= 1) then ok := false;
    if Bitset.mem twice i <> (counts.(i) >= 2) then ok := false
  done;
  !ok

let prop_acc2_counts =
  QCheck.Test.make ~name:"acc2 = naive multiset counting" ~count:200
    QCheck.(small_list (small_list (int_range 0 149)))
    (acc2_counts_agree ~cap:150)

(* a capacity that is not a multiple of the word size *)
let prop_acc2_counts_offheap =
  QCheck.Test.make ~name:"off-heap acc2 = naive multiset counting" ~count:200
    QCheck.(small_list (small_list (int_range 0 200)))
    (acc2_counts_agree ~cap:201)

let prop_word_ops_offheap =
  (* union/inter/diff/cardinal/iter agree with a sorted-list model *)
  QCheck.Test.make ~name:"off-heap word ops = list model" ~count:300
    QCheck.(pair (small_list (int_range 0 190)) (small_list (int_range 0 190)))
    (fun (la, lb) ->
      let cap = 191 in
      let la = List.sort_uniq compare la and lb = List.sort_uniq compare lb in
      let a = bs cap la and b = bs cap lb in
      let model f = List.filter (fun i -> f (List.mem i la) (List.mem i lb)) (List.init cap Fun.id) in
      let got op =
        let c = Bitset.copy a in
        op ~into:c b;
        Bitset.to_list c
      in
      got Bitset.union_into = model (fun x y -> x || y)
      && got Bitset.inter_into = model (fun x y -> x && y)
      && got Bitset.diff_into = model (fun x y -> x && not y)
      && Bitset.cardinal a = List.length la
      && Bitset.to_list a = la
      && Bitset.equal a (bs cap la))

(* feeding each shard's rows into a private pair and merging must equal
   feeding all rows into one pair, for any partition into any number of
   shards *)
let prop_merge_equals_sequential =
  QCheck.Test.make ~name:"sharded acc2 merge = sequential acc2" ~count:300
    QCheck.(pair (int_range 1 7) (small_list (small_list (int_range 0 220))))
    (fun (shards, rows) ->
      let cap = 221 in
      let rows = Array.of_list rows in
      let nr = Array.length rows in
      let once = Bitset.create cap and twice = Bitset.create cap in
      Array.iter (fun row -> Bitset.acc2_or_into ~once ~twice (bs cap row)) rows;
      (* contiguous slices (the engine's partition rule) into private
         pairs, merged in shard order *)
      let m_once = Bitset.create cap and m_twice = Bitset.create cap in
      for s = 0 to shards - 1 do
        let so = Bitset.create cap and st = Bitset.create cap in
        for i = s * nr / shards to (((s + 1) * nr) / shards) - 1 do
          Bitset.acc2_or_into ~once:so ~twice:st (bs cap rows.(i))
        done;
        Bitset.acc2_merge_into ~once:m_once ~twice:m_twice ~src_once:so ~src_twice:st
      done;
      Bitset.equal once m_once && Bitset.equal twice m_twice)

let test_merge_units () =
  let cap = 130 in
  let mk lo lt = (bs cap lo, bs cap lt) in
  let merge (o1, t1) (o2, t2) =
    let once = Bitset.copy o1 and twice = Bitset.copy t1 in
    Bitset.acc2_merge_into ~once ~twice ~src_once:o2 ~src_twice:t2;
    (Bitset.to_list once, Bitset.to_list twice)
  in
  (* disjoint singles stay single *)
  Alcotest.(check (pair (list int) (list int)))
    "disjoint singles"
    ([ 0; 64; 65; 129 ], [])
    (merge (mk [ 0; 64 ] []) (mk [ 65; 129 ] []));
  (* single + single on the same bit saturates to twice *)
  Alcotest.(check (pair (list int) (list int)))
    "overlap saturates"
    ([ 5; 70 ], [ 70 ])
    (merge (mk [ 5; 70 ] []) (mk [ 70 ] []));
  (* an incoming twice wins regardless of the target's state *)
  Alcotest.(check (pair (list int) (list int)))
    "src twice dominates"
    ([ 7 ], [ 7 ])
    (merge (mk [] []) (mk [ 7 ] [ 7 ]))

(* --- sharded delivery --------------------------------------------------- *)

let prop_shard_equiv =
  prop_strategy ~name:"shards k = shards 1 = scalar = reference" ~count:120 (arb_strategy ())

(* sharding composes with the forced dense kernel: the scatter feeds the
   same classify step the rows-based kernel uses *)
let prop_shard_forced_kernel =
  prop_strategy ~name:"shards k + kernel `On = kernel `On" ~count:60
    (arb_strategy ~kernel:[ `On ] ())

let test_shard_n512 () =
  check_circulant512 ~name:"identical results at n=512, shards=3" (circulant512_beacon auto)
    (circulant512_beacon { auto with shards = 3 })

let test_shard_config_validation () =
  let dual = Dual.classic (Gen.clique 4) in
  Alcotest.check_raises "shards = 0 rejected" (Invalid_argument "Engine.config: shards < 1")
    (fun () -> ignore (E.config ~shards:0 ~detector:(detector_of dual) dual))

let () =
  Alcotest.run "shard"
    [
      ( "acc2",
        [
          Alcotest.test_case "unit cases (0/1/2/3+ senders)" `Quick test_acc2_units;
          Alcotest.test_case "acc2_add = acc2_or_into" `Quick test_acc2_add_matches_or;
          qtest prop_acc2_counts;
        ] );
      ( "offheap-words",
        [
          qtest prop_acc2_counts_offheap;
          qtest prop_word_ops_offheap;
          Alcotest.test_case "acc2_merge_into unit cases" `Quick test_merge_units;
          qtest prop_merge_equals_sequential;
        ] );
      ( "sharded-delivery",
        [
          qtest prop_shard_equiv;
          qtest prop_shard_forced_kernel;
          Alcotest.test_case "circulant n=512, shards=3 pin" `Quick test_shard_n512;
          Alcotest.test_case "config validation" `Quick test_shard_config_validation;
        ] );
    ]
