(* Benchmark harness.

   Part 1 — bechamel micro-benchmarks of the substrate (engine, graph
   generation, overlay, verifier, subroutines): wall-clock per operation.
   These characterise the simulator, not the paper (whose claims are round
   counts, not seconds).

   Part 2 — the experiment suite of DESIGN.md: one table per theorem of
   the paper, regenerated from scratch.  Pass [--full] for the larger
   parameter grids recorded in EXPERIMENTS.md.

   Flags:
     --full            larger grids
     --jobs N          worker domains for the experiment sweeps
     --profile         print engine round-loop section timings at the end
     --json            write micro-bench estimates + per-experiment
                       wall-clocks to BENCH_PR2.json (see --json-out)
     --json-out FILE   destination for the JSON report
     --store DIR       run every experiment twice through the result
                       store (cold: journalling, warm: replaying) and
                       report the cold-vs-warm sweep time; replaces the
                       seq-vs-par comparison, which a warm cache would
                       render meaningless *)

(* Alias the stub library's clock before the opens: [Toolkit] shadows
   [Monotonic_clock] with its MEASURE wrapper. *)
module Mclock = Monotonic_clock
open Bechamel
open Toolkit
module Rng = Rn_util.Rng
module Gen = Rn_graph.Gen
module Dual = Rn_graph.Dual
module Detector = Rn_detect.Detector
module R = Core.Radio

(* --- fixtures (built once, outside the timed thunks) --- *)

let dual64 =
  Gen.geometric ~rng:(Rng.create 11)
    (Gen.default_spec ~n:64 ~side:(Gen.side_for_degree ~n:64 ~target_degree:10) ())

let det64 = Detector.perfect (Dual.g dual64)
let h64 = Detector.h_graph det64

let mis_outputs =
  let res =
    Core.Mis.run ~seed:1
      ~adversary:(Rn_sim.Adversary.bernoulli 0.5)
      ~detector:(Detector.static det64) dual64
  in
  res.R.outputs

let star32 = Dual.classic (Gen.star 33)
let star32_det = Detector.perfect (Dual.g star32)

let bench_mis_run () =
  ignore
    (Core.Mis.run ~seed:2
       ~adversary:(Rn_sim.Adversary.bernoulli 0.5)
       ~detector:(Detector.static det64) dual64)

let bench_directed_decay () =
  let cfg = R.config ~seed:3 ~detector:(Detector.static star32_det) star32 in
  ignore
    (R.run cfg (fun ctx ->
         let me = R.me ctx in
         let noms = if me = 0 then [] else [ (0, me) ] in
         Core.Subroutines.directed_decay Core.Params.default ctx ~is_mis:(me = 0) ~noms))

let bench_geometric () =
  ignore
    (Gen.geometric ~rng:(Rng.create 42)
       (Gen.default_spec ~n:128 ~side:(Gen.side_for_degree ~n:128 ~target_degree:12) ()))

let bench_overlay () = ignore (Rn_geom.Overlay.i_r 3.0)

let bench_bitset () =
  let a = Rn_util.Bitset.create 1024 and b = Rn_util.Bitset.create 1024 in
  for i = 0 to 1023 do
    if i land 1 = 0 then Rn_util.Bitset.add a i else Rn_util.Bitset.add b i
  done;
  Rn_util.Bitset.union_into ~into:a b;
  ignore (Rn_util.Bitset.cardinal a)

let bench_ccds_check () =
  ignore (Rn_verify.Verify.Ccds_check.check ~h:h64 ~g':(Dual.g' dual64) mis_outputs)

let bench_single_game () =
  let rng = Rng.create 5 in
  ignore (Rn_games.Single_game.play rng Permutation ~beta:256 ~target:129 ~max_rounds:10_000)

let tests =
  Test.make_grouped ~name:"substrate"
    [
      Test.make ~name:"mis-full-run-n64" (Staged.stage bench_mis_run);
      Test.make ~name:"directed-decay-star32" (Staged.stage bench_directed_decay);
      Test.make ~name:"geometric-gen-n128" (Staged.stage bench_geometric);
      Test.make ~name:"overlay-i_r-3" (Staged.stage bench_overlay);
      Test.make ~name:"bitset-union-1024" (Staged.stage bench_bitset);
      Test.make ~name:"ccds-check-n64" (Staged.stage bench_ccds_check);
      Test.make ~name:"single-game-b256" (Staged.stage bench_single_game);
    ]

(* Runs the micro-benchmarks, prints the table, and returns the raw
   (name, ns/run) estimates for the JSON report. *)
let run_microbenches () =
  print_endline "--- substrate micro-benchmarks (bechamel, ns/run) ---";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name o acc -> (name, o) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let t = Rn_util.Table.create [ "benchmark"; "time/run"; "r^2" ] in
  let estimates =
    List.map
      (fun (name, o) ->
        let est =
          match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> nan
        in
        let pretty =
          if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
        in
        let r2 =
          match Analyze.OLS.r_square o with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-"
        in
        Rn_util.Table.add_row t [ name; pretty; r2 ];
        (name, est))
      rows
  in
  Rn_util.Table.print t;
  print_newline ();
  estimates

(* Monotonic wall-clock timing (bechamel's clock, ns).  gettimeofday is
   subject to NTP slews/jumps, which corrupted speedup tables on long
   runs. *)
let timed f =
  let t0 = Mclock.now () in
  let v = f () in
  let t1 = Mclock.now () in
  (v, Int64.to_float (Int64.sub t1 t0) /. 1e9)

(* Tracing-overhead check: the same MIS workload with instrumentation
   fully off vs fully on (metrics registry enabled and an event sink
   attached).  The "off" number also guards the disabled hot path — the
   engine samples the enabled flags once per run, so a regression here
   means that stopped being free.  Reported to the JSON file as
   pseudo-experiments "trace-off"/"trace-on" so scripts/bench_check.sh
   compares both against the baseline. *)
let trace_overhead () =
  let runs = 5 in
  let workload sink () =
    for seed = 1 to runs do
      ignore
        (Core.Mis.run ~seed
           ~adversary:(Rn_sim.Adversary.bernoulli 0.5)
           ?sink ~detector:(Detector.static det64) dual64)
    done
  in
  workload None () (* warm-up *);
  let (), t_off = timed (workload None) in
  Rn_util.Metrics.set_enabled true;
  let sink = Rn_sim.Events.create ~capacity:(1 lsl 18) () in
  let (), t_on = timed (workload (Some sink)) in
  Rn_util.Metrics.set_enabled false;
  Rn_util.Metrics.reset ();
  Printf.printf
    "--- tracing overhead (MIS n=64 x%d): off %.3f s, on %.3f s (+%.1f%%) ---\n\n" runs t_off
    t_on
    (100.0 *. (t_on -. t_off) /. t_off);
  [ ("trace-off", t_off); ("trace-on", t_on) ]

(* Kernel-path timings, reported as pseudo-experiments so
   scripts/bench_check.sh gates them against the committed baseline:

     dense-delivery-n4096  a 60-round half-duty workload on a degree-1536
                           circulant — every round is dense, so this is
                           the word-parallel delivery kernel end to end;
     world-gen-n32k        one connected geometric world at n=32768 —
                           the hash-grid O(n)-expected construction path.

   The committed baselines are the pre-kernel scalar/naive timings, so a
   regression here means the fast paths stopped engaging. *)
module Beacon_msg = struct
  type t = int

  let size_bits ~n:_ _ = 16
  let pp = Fmt.int
end

module Beacon_engine = Rn_sim.Engine.Make (Beacon_msg)

let kernel_perf () =
  let g =
    (* circulant: node i adjacent to i±1..i±k (mod n); a deterministic
       dense world that keeps the kernel's density test on *)
    let n = 4096 and k = 768 in
    let es = ref [] in
    for u = 0 to n - 1 do
      for j = 1 to k do
        let v = (u + j) mod n in
        es := (min u v, max u v) :: !es
      done
    done;
    Rn_graph.Graph.of_edges n !es
  in
  let dual = Dual.classic g in
  let det = Detector.static (Detector.perfect g) in
  let dense () =
    let cfg =
      Beacon_engine.config ~seed:7 ~stop:(Rn_sim.Engine.At_round 60) ~detector:det dual
    in
    ignore
      (Beacon_engine.run cfg (fun ctx ->
           let me = Beacon_engine.me ctx in
           for _ = 1 to 60 do
             ignore (Beacon_engine.sync_p ctx 0.5 me)
           done))
  in
  dense () (* warm-up: builds the adjacency-row cache *);
  let (), t_dense = timed dense in
  let (), t_gen =
    timed (fun () ->
        ignore
          (Gen.geometric ~rng:(Rng.create 1)
             (Gen.default_spec ~n:32768
                ~side:(Gen.side_for_degree ~n:32768 ~target_degree:12)
                ())))
  in
  Printf.printf "--- kernel paths: dense delivery %.3f s, world gen n=32k %.3f s ---\n\n"
    t_dense t_gen;
  [ ("dense-delivery-n4096", t_dense); ("world-gen-n32k", t_gen) ]

(* Scale-path timing, gated like the kernel entries:

     world-alloc-n1m  one connected n=10^6 geometric world built
                      through the packed-CSR + off-heap-bitset
                      construction path — the memory half of the
                      million-node milestone.

   A regression means the packed world build stopped carrying its
   weight. *)
let scale_perf () =
  let (), t_world =
    timed (fun () ->
        ignore
          (Gen.geometric ~rng:(Rng.create 2)
             (Gen.default_spec ~n:1_000_000
                ~side:(Gen.side_for_degree ~n:1_000_000 ~target_degree:20)
                ())))
  in
  Printf.printf "--- scale paths: world alloc n=1m %.3f s ---\n\n" t_world;
  [ ("world-alloc-n1m", t_world) ]

(* Adversary-phase timings, gated like the kernel entries:

     adversary-dense-n65536  spiteful on half-duty dense rounds plus
                             jamming with a small broadcaster set on a
                             degree-80 circulant dual at n=65536 — the
                             word-parallel adversary kernel end to end
                             (mask fills, once/twice victim finding);
     jamming-scalar-n16384   the same jamming workload with the
                             adversary kernel forced off — the scalar
                             path's preallocated scratch (no per-round
                             Array.make n allocations).

   The committed baselines are the pre-kernel per-edge-callback timings
   (2.946 s / 0.127 s on the CI reference box); the acceptance bar for
   the dense entry is >= 3x under them, so a regression means the mask
   path stopped engaging. *)
(* circulant dual: reliable ring i +/- 1..rel_k, gray annulus
   i +/- (rel_k+1)..(rel_k+gray_k) — deterministic, uniform-degree,
   with the contiguous gray-id ranges the kernel exploits *)
let circulant_dual ~n ~rel_k ~gray_k =
  let band lo hi =
    let a = Array.make (n * (hi - lo + 1)) 0 in
    let idx = ref 0 in
    for u = 0 to n - 1 do
      for j = lo to hi do
        let v = (u + j) mod n in
        let x = min u v and y = max u v in
        a.(!idx) <- (x * n) + y;
        incr idx
      done
    done;
    a
  in
  let g = Rn_graph.Graph.of_packed_unsorted n (band 1 rel_k) in
  let gray_pk = band (rel_k + 1) (rel_k + gray_k) in
  Array.sort compare gray_pk;
  Dual.make_packed ~g ~gray_pk ()

let adversary_perf () =
  (* the 1M-node scale entries run just before this one; compact so the
     timings measure the adversary paths, not leftover heap pressure *)
  Gc.compact ();
  let dual = circulant_dual ~n:65536 ~rel_k:8 ~gray_k:32 in
  let det = Detector.static (Detector.perfect (Dual.g dual)) in
  let spiteful () =
    let cfg =
      Beacon_engine.config ~seed:13 ~stop:(Rn_sim.Engine.At_round 8)
        ~adversary:Rn_sim.Adversary.spiteful ~detector:det dual
    in
    ignore
      (Beacon_engine.run cfg (fun ctx ->
           let me = Beacon_engine.me ctx in
           for _ = 1 to 8 do
             ignore (Beacon_engine.sync_p ctx 0.5 me)
           done))
  in
  let jamming ~adv_kernel ~rounds dual det =
    let cfg =
      Beacon_engine.config ~seed:17 ~stop:(Rn_sim.Engine.At_round rounds) ~adv_kernel
        ~adversary:Rn_sim.Adversary.jamming ~detector:det dual
    in
    ignore
      (Beacon_engine.run cfg (fun ctx ->
           let me = Beacon_engine.me ctx in
           if me < 256 then
             for _ = 1 to rounds do
               ignore (Beacon_engine.sync_p ctx 0.5 me)
             done
           else Beacon_engine.idle ctx rounds))
  in
  spiteful () (* warm-up: builds the adversary CSR *);
  let (), t_sp = timed spiteful in
  let (), t_jam = timed (fun () -> jamming ~adv_kernel:`Auto ~rounds:1500 dual det) in
  let small = circulant_dual ~n:16384 ~rel_k:8 ~gray_k:16 in
  let small_det = Detector.static (Detector.perfect (Dual.g small)) in
  jamming ~adv_kernel:`Off ~rounds:60 small small_det (* warm-up *);
  let (), t_scalar =
    timed (fun () -> jamming ~adv_kernel:`Off ~rounds:600 small small_det)
  in
  Printf.printf
    "--- adversary paths: dense n=64k %.3f s (spiteful %.3f + jamming %.3f), scalar jamming \
     n=16k %.3f s ---\n\n"
    (t_sp +. t_jam) t_sp t_jam t_scalar;
  [ ("adversary-dense-n65536", t_sp +. t_jam); ("jamming-scalar-n16384", t_scalar) ]

(* Sharded resume loop, gated like the kernel entries:

     mis-resume-n65536  24 rounds of the real MIS schedule on a 64k
                        circulant world with the resume loop sharded
                        across 4 domains — 64k live algorithm fibers
                        per round, so the resume phase dominates and
                        every round clears the resume-shard gate.  No
                        speedup over the scalar loop has been observed
                        (DESIGN.md "Sharded resume loop" has the
                        measured ratios); the entry catches a slowdown
                        of the sharded path.
     decay-star32       200 directed-decay runs on the 33-node star:
                        the mixed listener/broadcaster batched-idle
                        fast path (leaves park as soon as the centre's
                        stop order lands) on top of the pure-listener
                        one.

   The committed baselines are scalar-resume timings on the CI
   reference box; on a single-core host the sharded entry falls back to
   near-scalar cost (slices run back to back on the one domain), which
   the check tolerance absorbs. *)
let resume_perf () =
  Gc.compact ();
  let dual = circulant_dual ~n:65536 ~rel_k:8 ~gray_k:8 in
  let det = Detector.static (Detector.perfect (Dual.g dual)) in
  let params = Core.Params.default in
  let mis ~rounds =
    let cfg =
      R.config ~seed:23 ~stop:(Rn_sim.Engine.At_round rounds) ~resume_shards:4
        ~adversary:(Rn_sim.Adversary.bernoulli 0.5)
        ~detector:det dual
    in
    ignore (R.run cfg (fun ctx -> Core.Mis.body params ctx))
  in
  mis ~rounds:4 (* warm-up: spawns the pool domains, builds the CSR *);
  let (), t_mis = timed (fun () -> mis ~rounds:24) in
  let (), t_decay =
    timed (fun () ->
        for _ = 1 to 200 do
          bench_directed_decay ()
        done)
  in
  Printf.printf
    "--- sharded resume: MIS n=64k 24 rounds %.3f s, directed-decay star32 x200 %.3f s \
     ---\n\n"
    t_mis t_decay;
  [ ("mis-resume-n65536", t_mis); ("decay-star32", t_decay) ]

(* Sweep-service overhead, gated like the kernel entries:

     serve-overhead-e5  E5 (quick scale) submitted cold through an
                        in-process daemon plus one worker over a real
                        unix socket — the full `rn_cli serve` round
                        trip (submit RPC, per-cell claim RPCs, shared
                        journal appends, results fetch), minus process
                        spawning.
     serve-progress-e5  The same cold sweep with a progress-streaming
                        wait draining every per-cell event frame — the
                        streaming path must stay within a few percent
                        of the plain wait.

   The direct cold E5 wall-clock is the "E5" experiment entry in the
   same report, so the pair bounds what the service layer costs per
   sweep; a regression here means the per-cell claim RPCs, the progress
   stream, or the daemon's select tick got expensive. *)
let serve_perf () =
  let module P = Rn_serve.Protocol in
  let module C = Rn_serve.Client in
  (* One cold E5 sweep through a fresh in-process daemon + worker pair
     over a fresh store; [progress] picks the wait flavour. *)
  let one_sweep ~progress =
    let dir = Filename.temp_file "rn-bench-serve" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let sock = Filename.concat dir "sock" in
    let store_dir = Filename.concat dir "store" in
    let daemon =
      Domain.spawn (fun () ->
          Rn_serve.Daemon.run ~workers:0 ~spawn:false ~socket:sock ~store_dir ())
    in
    let rec await n =
      if Sys.file_exists sock then ()
      else if n = 0 then failwith "serve bench: daemon never bound its socket"
      else begin
        Unix.sleepf 0.02;
        await (n - 1)
      end
    in
    await 250;
    let worker =
      Domain.spawn (fun () -> Rn_serve.Worker.run ~idle_sleep:0.005 ~socket:sock ())
    in
    let io = C.connect sock in
    let events = ref 0 in
    let (), t_serve =
      timed (fun () ->
          let j =
            match
              C.rpc io (P.Submit { P.exps = [ "E5" ]; scale = P.Quick; jobs = 1; retry = 0 })
            with
            | P.Job_id j -> j
            | _ -> failwith "serve bench: expected a job id"
          in
          (if progress then (
             match C.wait_progress io j ~on_progress:(fun _ -> incr events) with
             | P.Ok_unit -> ()
             | _ -> failwith "serve bench: progress wait failed")
           else
             match C.rpc io (P.Wait { job = j; progress = false }) with
             | P.Ok_unit -> ()
             | _ -> failwith "serve bench: wait failed");
          match C.rpc io (P.Results j) with
          | P.Results_r _ -> ()
          | P.Err m -> failwith ("serve bench: " ^ m)
          | _ -> failwith "serve bench: expected results")
    in
    if progress && !events = 0 then failwith "serve bench: progress stream was empty";
    (match C.rpc io P.Shutdown with
    | P.Ok_unit -> ()
    | _ -> failwith "serve bench: shutdown failed");
    C.close io;
    Domain.join worker;
    Domain.join daemon;
    let rec rm p =
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
    in
    rm dir;
    t_serve
  in
  let t_serve = one_sweep ~progress:false in
  let t_progress = one_sweep ~progress:true in
  Printf.printf
    "--- sweep service: E5 cold through daemon + worker %.3f s, with progress stream \
     %.3f s (%+.1f%%) ---\n\n"
    t_serve t_progress
    (100.0 *. (t_progress -. t_serve) /. t_serve);
  [ ("serve-overhead-e5", t_serve); ("serve-progress-e5", t_progress) ]

(* --jobs N: worker domains for the experiment sweeps (default: cores - 1,
   capped).  With jobs > 1 every experiment is run twice — once parallel,
   once sequential — and the wall-clock speedup is reported per
   experiment, along with a check that both runs rendered the identical
   table (the harness's determinism guarantee). *)
let parse_jobs () =
  let rec find = function
    | "--jobs" :: v :: _ -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> j
      | _ -> failwith "usage: --jobs N (N >= 1)")
    | _ :: rest -> find rest
    | [] -> Rn_util.Pool.recommended_jobs ()
  in
  find (Array.to_list Sys.argv)

let parse_json_out () =
  let rec find = function
    | "--json-out" :: path :: _ -> Some path
    | "--json" :: _ -> Some "BENCH_PR2.json"
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let parse_store () =
  let rec find = function
    | "--store" :: dir :: _ -> Some dir
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

(* Hand-rolled JSON (no json dependency); one entry per line so shell
   tooling (scripts/bench_check.sh) can grep it. *)
let write_json ~path ~full ~jobs ~micro ~experiments =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"rn-bench/1\",\n  \"scale\": \"%s\",\n  \"jobs\": %d,\n"
    (if full then "full" else "quick")
    jobs;
  Printf.fprintf oc "  \"micro\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"ns_per_run\": %.1f}%s\n" name
        (if Float.is_nan ns then -1.0 else ns)
        (if i = List.length micro - 1 then "" else ","))
    micro;
  Printf.fprintf oc "  ],\n  \"experiments\": [\n";
  List.iteri
    (fun i (id, seconds) ->
      Printf.fprintf oc "    {\"id\": \"%s\", \"seconds\": %.3f}%s\n" id seconds
        (if i = List.length experiments - 1 then "" else ","))
    experiments;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "[wrote %s]\n" path

let () =
  let full = Array.exists (fun a -> a = "--full") Sys.argv in
  let profile = Array.exists (fun a -> a = "--profile") Sys.argv in
  let json_out = parse_json_out () in
  let jobs = parse_jobs () in
  let store_dir = parse_store () in
  let scale = if full then Rn_harness.Harness.Full else Rn_harness.Harness.Quick in
  let micro = run_microbenches () in
  let trace_entries = trace_overhead () in
  let kernel_entries = kernel_perf () in
  let scale_entries = scale_perf () in
  let adversary_entries = adversary_perf () in
  let resume_entries = resume_perf () in
  let serve_entries = serve_perf () in
  if profile then Rn_util.Timing.set_enabled true;
  Printf.printf
    "--- experiment suite (%s scale, %d jobs; see DESIGN.md / EXPERIMENTS.md) ---\n\n"
    (if full then "full" else "quick")
    jobs;
  let speedups = Rn_util.Table.create [ "experiment"; "seq (s)"; "par (s)"; "speedup"; "identical" ] in
  let cold_warm =
    Rn_util.Table.create [ "experiment"; "cold (s)"; "warm (s)"; "speedup"; "warm hits"; "identical" ]
  in
  let store = Option.map (fun dir -> Rn_util.Store.open_ dir) store_dir in
  (match store with Some s -> Rn_harness.Harness.set_store s | None -> ());
  let wallclocks = ref [] in
  List.iter
    (fun id ->
      Printf.printf "[running %s...]\n%!" id;
      match Rn_harness.All.find id with
      | None -> ()
      | Some f ->
        Rn_harness.Harness.set_jobs jobs;
        let par, t_par = timed (fun () -> f scale) in
        Rn_harness.Harness.print par;
        wallclocks := (id, t_par) :: !wallclocks;
        (match store with
        | Some _ ->
          (* warm pass: every cell should replay from the journal *)
          Rn_harness.Harness.reset_store_counters ();
          let warm, t_warm = timed (fun () -> f scale) in
          let hits, misses, _ = Rn_harness.Harness.store_counters () in
          Rn_util.Table.add_row cold_warm
            [
              id;
              Printf.sprintf "%.2f" t_par;
              Printf.sprintf "%.2f" t_warm;
              Printf.sprintf "%.0fx" (t_par /. t_warm);
              Printf.sprintf "%d/%d" hits (hits + misses);
              (if Rn_harness.Harness.render warm = Rn_harness.Harness.render par then "yes"
               else "NO");
            ]
        | None ->
          if jobs > 1 then begin
            Rn_harness.Harness.set_jobs 1;
            let seq, t_seq = timed (fun () -> f scale) in
            Rn_util.Table.add_row speedups
              [
                id;
                Printf.sprintf "%.2f" t_seq;
                Printf.sprintf "%.2f" t_par;
                Printf.sprintf "%.2fx" (t_seq /. t_par);
                (if Rn_harness.Harness.render seq = Rn_harness.Harness.render par then "yes"
                 else "NO");
              ]
          end))
    Rn_harness.All.ids;
  (match store with
  | Some s ->
    Printf.printf "--- store cold-vs-warm sweep time (dir %s; tables must be identical) ---\n"
      (Rn_util.Store.dir s);
    Rn_util.Table.print cold_warm;
    print_newline ();
    Rn_harness.Harness.clear_store ();
    Rn_util.Store.close s
  | None ->
    if jobs > 1 then begin
      Printf.printf "--- wall-clock speedup at %d jobs (tables must be identical) ---\n" jobs;
      Rn_util.Table.print speedups;
      print_newline ()
    end);
  if profile then Rn_util.Timing.print_report ();
  match json_out with
  | Some path ->
    write_json ~path ~full ~jobs ~micro
      ~experiments:
        (trace_entries @ kernel_entries @ scale_entries @ adversary_entries
        @ resume_entries @ serve_entries @ List.rev !wallclocks)
  | None -> ()
