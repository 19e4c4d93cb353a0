(* Unit and property tests for rn_util. *)

module Rng = Rn_util.Rng
module Ilog = Rn_util.Ilog
module Stats = Rn_util.Stats
module Fit = Rn_util.Fit
module Bitset = Rn_util.Bitset
module Union_find = Rn_util.Union_find
module Table = Rn_util.Table

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 8)

let test_rng_derive_stable () =
  let t = Rng.create 7 in
  let a = Rng.derive t 3 and b = Rng.derive t 3 in
  (* derive does not advance the parent and is label-deterministic *)
  check Alcotest.int "same derived stream" (Rng.int a 9999) (Rng.int b 9999)

let test_rng_derive_labels_differ () =
  let t = Rng.create 7 in
  let a = Rng.derive t 1 and b = Rng.derive t 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "labels give distinct streams" true (!same < 8)

let test_rng_bool_degenerate () =
  let t = Rng.create 3 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never true" false (Rng.bool t 0.0)
  done

let test_rng_int_error () =
  let t = Rng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0))

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int in [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Rng.create seed in
      let x = Rng.int t bound in
      x >= 0 && x < bound)

let prop_rng_float_unit =
  QCheck.Test.make ~name:"Rng.float in [0,1)" ~count:500 QCheck.small_int (fun seed ->
      let t = Rng.create seed in
      let x = Rng.float t in
      x >= 0.0 && x < 1.0)

let prop_rng_permutation =
  QCheck.Test.make ~name:"Rng.permutation is a permutation" ~count:200
    QCheck.(pair small_int (int_range 1 64))
    (fun (seed, n) ->
      let p = Rng.permutation (Rng.create seed) n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_rng_shuffle_multiset =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      Rng.shuffle_in_place (Rng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let test_rng_geometric_support () =
  let t = Rng.create 5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "geometric >= 1" true (Rng.geometric t 0.5 >= 1)
  done

(* ---------------- Ilog ---------------- *)

let test_ilog_known () =
  check Alcotest.int "floor_log2 1" 0 (Ilog.floor_log2 1);
  check Alcotest.int "floor_log2 2" 1 (Ilog.floor_log2 2);
  check Alcotest.int "floor_log2 3" 1 (Ilog.floor_log2 3);
  check Alcotest.int "ceil_log2 1" 0 (Ilog.ceil_log2 1);
  check Alcotest.int "ceil_log2 3" 2 (Ilog.ceil_log2 3);
  check Alcotest.int "log2_up 1" 1 (Ilog.log2_up 1);
  check Alcotest.int "log2_up 1024" 10 (Ilog.log2_up 1024);
  check Alcotest.int "next_pow2 5" 8 (Ilog.next_pow2 5);
  check Alcotest.int "next_pow2 8" 8 (Ilog.next_pow2 8)

let prop_ilog_floor =
  QCheck.Test.make ~name:"floor_log2 brackets n" ~count:500 (QCheck.int_range 1 1_000_000)
    (fun n ->
      let k = Ilog.floor_log2 n in
      Ilog.pow2 k <= n && n < Ilog.pow2 (k + 1))

let prop_ilog_ceil =
  QCheck.Test.make ~name:"ceil_log2 brackets n" ~count:500 (QCheck.int_range 2 1_000_000)
    (fun n ->
      let k = Ilog.ceil_log2 n in
      Ilog.pow2 k >= n && Ilog.pow2 (k - 1) < n)

let prop_ilog_cdiv =
  QCheck.Test.make ~name:"cdiv is ceiling division" ~count:500
    QCheck.(pair (int_range 0 10000) (int_range 1 100))
    (fun (a, b) -> Ilog.cdiv a b = int_of_float (ceil (float_of_int a /. float_of_int b)))

let test_ilog_errors () =
  Alcotest.check_raises "floor_log2 0" (Invalid_argument "Ilog.floor_log2") (fun () ->
      ignore (Ilog.floor_log2 0));
  Alcotest.check_raises "cdiv by 0" (Invalid_argument "Ilog.cdiv") (fun () ->
      ignore (Ilog.cdiv 3 0))

let prop_is_pow2 =
  QCheck.Test.make ~name:"is_pow2 matches definition" ~count:500 (QCheck.int_range 1 65536)
    (fun n -> Ilog.is_pow2 n = (Ilog.pow2 (Ilog.floor_log2 n) = n))

(* ---------------- Stats ---------------- *)

let test_stats_known () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean xs);
  check (Alcotest.float 1e-9) "variance" (5.0 /. 3.0) (Stats.variance xs);
  check (Alcotest.float 1e-9) "median" 2.5 (Stats.median xs);
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile xs 0.0);
  check (Alcotest.float 1e-9) "p100" 4.0 (Stats.percentile xs 1.0)

let test_stats_single () =
  let xs = [| 5.0 |] in
  check (Alcotest.float 1e-9) "mean single" 5.0 (Stats.mean xs);
  check (Alcotest.float 1e-9) "variance single" 0.0 (Stats.variance xs);
  check (Alcotest.float 1e-9) "median single" 5.0 (Stats.median xs)

let test_stats_empty () =
  Alcotest.check_raises "mean empty" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean [||]))

let prop_stats_summary_order =
  QCheck.Test.make ~name:"summary min<=median<=p90<=max" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.0) 100.0))
    (fun l ->
      let s = Stats.summarize (Array.of_list l) in
      s.min <= s.median && s.median <= s.p90 +. 1e-9 && s.p90 <= s.max +. 1e-9)

let test_stats_ci95 () =
  Alcotest.check (Alcotest.float 1e-9) "single sample" 0.0 (Stats.ci95 [| 3.0 |]);
  (* constant data: zero width *)
  Alcotest.check (Alcotest.float 1e-9) "constant" 0.0 (Stats.ci95 [| 2.0; 2.0; 2.0 |]);
  (* known case: sd=1, n=4 -> 1.96/2 *)
  let xs = [| -1.0; 1.0; -1.0; 1.0 |] in
  Alcotest.check (Alcotest.float 1e-6) "known width" (1.96 *. Stats.stddev xs /. 2.0)
    (Stats.ci95 xs)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.0) 100.0))
    (fun l ->
      let s = Stats.summarize (Array.of_list l) in
      s.min -. 1e-9 <= s.mean && s.mean <= s.max +. 1e-9)

(* ---------------- Fit ---------------- *)

let test_fit_linear_exact () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.0 *. x) +. 1.0) xs in
  let l = Fit.linear xs ys in
  check (Alcotest.float 1e-9) "slope" 2.0 l.slope;
  check (Alcotest.float 1e-9) "intercept" 1.0 l.intercept;
  check (Alcotest.float 1e-9) "r2" 1.0 l.r2

let test_fit_power () =
  let xs = [| 2.0; 4.0; 8.0; 16.0 |] in
  let ys = Array.map (fun x -> 3.0 *. (x ** 2.0)) xs in
  let p, r2 = Fit.power_law xs ys in
  check (Alcotest.float 1e-6) "exponent" 2.0 p;
  check (Alcotest.float 1e-6) "r2" 1.0 r2

let test_fit_polylog () =
  let xs = [| 4.0; 16.0; 256.0; 1024.0 |] in
  let ys = Array.map (fun x -> 5.0 *. ((log x /. log 2.0) ** 3.0)) xs in
  let p, r2 = Fit.polylog_exponent xs ys in
  check (Alcotest.float 1e-6) "exponent" 3.0 p;
  check (Alcotest.float 1e-6) "r2" 1.0 r2

let test_fit_errors () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Fit.linear: length mismatch") (fun () ->
      ignore (Fit.linear [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "degenerate" (Invalid_argument "Fit.linear: degenerate xs")
    (fun () -> ignore (Fit.linear [| 2.0; 2.0 |] [| 1.0; 2.0 |]))

(* ---------------- Bitset ---------------- *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "initially empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  check Alcotest.int "cardinal" 4 (Bitset.cardinal s);
  check (Alcotest.list Alcotest.int) "to_list sorted" [ 0; 63; 64; 99 ] (Bitset.to_list s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Bitset.clear s;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "out of bounds" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.add s 10)

let test_bitset_copy_independent () =
  let s = Bitset.create 10 in
  Bitset.add s 3;
  let c = Bitset.copy s in
  Bitset.add c 5;
  Alcotest.(check bool) "original unchanged" false (Bitset.mem s 5);
  Alcotest.(check bool) "copy has both" true (Bitset.mem c 3 && Bitset.mem c 5)

module IS = Set.Make (Int)

let set_of_list l = List.fold_left (fun s i -> IS.add i s) IS.empty l

let small_members = QCheck.(list_of_size (Gen.int_range 0 40) (int_range 0 99))

let prop_bitset_union =
  QCheck.Test.make ~name:"union matches Set.union" ~count:300
    QCheck.(pair small_members small_members)
    (fun (a, b) ->
      let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
      Bitset.union_into ~into:sa sb;
      Bitset.to_list sa = IS.elements (IS.union (set_of_list a) (set_of_list b)))

let prop_bitset_inter =
  QCheck.Test.make ~name:"inter matches Set.inter" ~count:300
    QCheck.(pair small_members small_members)
    (fun (a, b) ->
      let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
      Bitset.inter_into ~into:sa sb;
      Bitset.to_list sa = IS.elements (IS.inter (set_of_list a) (set_of_list b)))

let prop_bitset_diff =
  QCheck.Test.make ~name:"diff matches Set.diff" ~count:300
    QCheck.(pair small_members small_members)
    (fun (a, b) ->
      let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
      Bitset.to_list (Bitset.diff sa sb)
      = IS.elements (IS.diff (set_of_list a) (set_of_list b)))

let prop_bitset_subset =
  QCheck.Test.make ~name:"subset matches Set.subset" ~count:300
    QCheck.(pair small_members small_members)
    (fun (a, b) ->
      let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
      Bitset.subset sa sb = IS.subset (set_of_list a) (set_of_list b))

let prop_bitset_cardinal =
  QCheck.Test.make ~name:"cardinal matches Set.cardinal" ~count:300 small_members
    (fun a ->
      Bitset.cardinal (Bitset.of_list 100 a) = IS.cardinal (set_of_list a))

(* ---------------- Bitset once/twice accumulators ---------------- *)

(* The delivery kernel's word layer: the (once, twice) pair is a pure
   function of the contribution multiset. *)

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
      let model f =
        List.filter (fun i -> f (List.mem i la) (List.mem i lb)) (List.init cap Fun.id)
      in
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

(* ---------------- Union_find ---------------- *)

let test_uf_basic () =
  let uf = Union_find.create 5 in
  check Alcotest.int "5 components" 5 (Union_find.components uf);
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  check Alcotest.int "3 components" 3 (Union_find.components uf);
  Alcotest.(check bool) "0~1" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "0!~2" false (Union_find.same uf 0 2);
  Union_find.union uf 1 2;
  Alcotest.(check bool) "0~3 transitively" true (Union_find.same uf 0 3);
  Union_find.union uf 0 3;
  check Alcotest.int "idempotent union" 2 (Union_find.components uf)

let prop_uf_components =
  QCheck.Test.make ~name:"components = n - spanning unions" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 30) (pair (int_range 0 19) (int_range 0 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> Union_find.union uf a b) pairs;
      (* cross-check against a naive fixpoint partition *)
      let repr = Array.init 20 (fun i -> i) in
      let rec naive_find i = if repr.(i) = i then i else naive_find repr.(i) in
      List.iter
        (fun (a, b) ->
          let ra = naive_find a and rb = naive_find b in
          if ra <> rb then repr.(ra) <- rb)
        pairs;
      let naive_components =
        List.length (List.sort_uniq compare (List.init 20 naive_find))
      in
      Union_find.components uf = naive_components)

(* ---------------- Table ---------------- *)

let test_table_render () =
  let t = Table.create [ "a"; "bb" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  Alcotest.(check bool) "contains separator" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.trim l <> "" && String.for_all (fun c -> c = '-' || c = ' ') l))

let test_table_arity () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let () =
  Alcotest.run "rn_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "derive stable" `Quick test_rng_derive_stable;
          Alcotest.test_case "derive labels differ" `Quick test_rng_derive_labels_differ;
          Alcotest.test_case "bool degenerate" `Quick test_rng_bool_degenerate;
          Alcotest.test_case "int error" `Quick test_rng_int_error;
          Alcotest.test_case "geometric support" `Quick test_rng_geometric_support;
          qtest prop_rng_int_bounds;
          qtest prop_rng_float_unit;
          qtest prop_rng_permutation;
          qtest prop_rng_shuffle_multiset;
        ] );
      ( "ilog",
        [
          Alcotest.test_case "known values" `Quick test_ilog_known;
          Alcotest.test_case "errors" `Quick test_ilog_errors;
          qtest prop_ilog_floor;
          qtest prop_ilog_ceil;
          qtest prop_ilog_cdiv;
          qtest prop_is_pow2;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "empty input" `Quick test_stats_empty;
          Alcotest.test_case "ci95" `Quick test_stats_ci95;
          qtest prop_stats_summary_order;
          qtest prop_stats_mean_bounds;
        ] );
      ( "fit",
        [
          Alcotest.test_case "linear exact" `Quick test_fit_linear_exact;
          Alcotest.test_case "power law" `Quick test_fit_power;
          Alcotest.test_case "polylog" `Quick test_fit_polylog;
          Alcotest.test_case "errors" `Quick test_fit_errors;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic ops" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "copy independent" `Quick test_bitset_copy_independent;
          qtest prop_bitset_union;
          qtest prop_bitset_inter;
          qtest prop_bitset_diff;
          qtest prop_bitset_subset;
          qtest prop_bitset_cardinal;
        ] );
      ( "acc2",
        [
          Alcotest.test_case "unit cases (0/1/2/3+ senders)" `Quick test_acc2_units;
          Alcotest.test_case "acc2_add = acc2_or_into" `Quick test_acc2_add_matches_or;
          qtest prop_acc2_counts;
        ] );
      ("offheap-words", [ qtest prop_acc2_counts_offheap; qtest prop_word_ops_offheap ]);
      ( "union-find",
        [
          Alcotest.test_case "basic" `Quick test_uf_basic;
          qtest prop_uf_components;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
        ] );
    ]
