(* Command-line driver: run any algorithm or experiment from the shell.

     rn_cli experiment E1 E4c --full
     rn_cli mis --n 128 --degree 12 --adversary bernoulli:0.5
     rn_cli ccds --n 128 --algo banned --b 96
     rn_cli bridge --beta 16
*)

open Cmdliner
module R = Core.Radio
module Dual = Rn_graph.Dual
module Detector = Rn_detect.Detector
module Verify = Rn_verify.Verify

let adversary_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "silent" ] -> Ok Rn_sim.Adversary.silent
    | [ "all" ] -> Ok Rn_sim.Adversary.all_gray
    | [ "spiteful" ] -> Ok Rn_sim.Adversary.spiteful
    | [ "jamming" ] -> Ok Rn_sim.Adversary.jamming
    | [ "bernoulli"; p ] -> begin
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Rn_sim.Adversary.bernoulli p)
      | _ -> Error (`Msg "bernoulli probability must be in [0,1]")
    end
    | [ "harassing"; p ] -> begin
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Rn_sim.Adversary.harassing p)
      | _ -> Error (`Msg "harassing probability must be in [0,1]")
    end
    | _ -> Error (`Msg "expected silent|all|spiteful|jamming|bernoulli:P|harassing:P")
  in
  Arg.conv (parse, fun ppf a -> Fmt.string ppf (Rn_sim.Adversary.name a))

let kernel_mode_of_string ~flag s =
  match s with
  | "auto" -> `Auto
  | "on" -> `On
  | "off" -> `Off
  | s ->
    Printf.eprintf "rn_cli: bad %s %S (want auto|on|off)\n" flag s;
    exit 2

(* An int option with a lower bound, checked at parse time so a bad value
   is a usage error rather than an exception deep in world building. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "must be at least %d" lo))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Fmt.int)

let n_arg =
  Arg.(
    value
    & opt (int_at_least 2) 128
    & info [ "n"; "nodes" ] ~doc:"Network size (at least 2).")

let degree_arg =
  Arg.(
    value
    & opt (int_at_least 1) 12
    & info [ "degree" ] ~doc:"Target reliable degree (at least 1).")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Experiment seed.")
let tau_arg = Arg.(value & opt int 0 & info [ "tau" ] ~doc:"Detector completeness parameter.")

let b_arg =
  Arg.(value & opt (some int) None & info [ "b" ] ~doc:"Message size bound in bits.")

let adversary_arg =
  Arg.(
    value
    & opt adversary_conv (Rn_sim.Adversary.bernoulli 0.5)
    & info [ "adversary" ] ~doc:"Gray-edge policy: silent|all|spiteful|bernoulli:P|harassing:P.")

let build_instance ~seed ~n ~degree ~tau =
  let dual = Rn_harness.Harness.geometric ~seed ~n ~degree () in
  let det =
    if tau = 0 then Detector.perfect (Dual.g dual)
    else
      Detector.tau_complete ~rng:(Rn_util.Rng.create (seed + 77)) ~tau dual
  in
  (dual, det)

let summarize_engine name (rounds, stats, timed_out) =
  Printf.printf "%s: rounds=%d sends=%d deliveries=%d collisions=%d bits=%d silent=%d%s\n" name
    rounds stats.Rn_sim.Engine.sends stats.Rn_sim.Engine.deliveries
    stats.Rn_sim.Engine.collisions stats.Rn_sim.Engine.bits_sent
    stats.Rn_sim.Engine.silent_rounds
    (if timed_out then " TIMEOUT" else "")

let print_mis_report dual det outputs =
  let rep = Verify.Mis_check.check ~g:(Dual.g dual) ~h:(Detector.h_graph det) outputs in
  Printf.printf "MIS check: termination=%b independence=%b maximality=%b\n" rep.termination
    rep.independence rep.maximality;
  List.iter (fun v -> Printf.printf "  violation: %s\n" v) rep.violations;
  let size = Array.fold_left (fun c o -> if o = Some 1 then c + 1 else c) 0 outputs in
  Printf.printf "MIS size: %d / %d\n" size (Array.length outputs)

let print_ccds_report dual det outputs =
  let rep = Verify.Ccds_check.check ~h:(Detector.h_graph det) ~g':(Dual.g' dual) outputs in
  Printf.printf
    "CCDS check: termination=%b connectivity=%b domination=%b max-G'-neighbours=%d size=%d\n"
    rep.termination rep.connectivity rep.domination rep.max_neighbors_g' rep.size;
  List.iter (fun v -> Printf.printf "  violation: %s\n" v) rep.violations

(* --- mis command --- *)

let run_mis n degree seed tau adversary trace =
  let dual, det = build_instance ~seed ~n ~degree ~tau in
  Printf.printf "instance: %s, Delta=%d\n" (Format.asprintf "%a" Dual.pp dual)
    (Dual.max_degree_g dual);
  let tracer = Rn_sim.Trace.create () in
  let observer (v : R.view) =
    Rn_sim.Trace.observe tracer ~view_round:v.R.view_round
      ~view_broadcasters:v.R.view_broadcasters ~view_decided:v.R.view_decided
      ~view_outputs:v.R.view_outputs
  in
  let cfg = R.config ~adversary ~seed ~observer ~detector:(Detector.static det) dual in
  let res =
    R.run cfg (fun ctx ->
        Core.Mis.body ~on_decide:(fun v -> R.output ctx v) Core.Params.default ctx)
  in
  summarize_engine "mis" (res.R.rounds, res.R.stats, res.R.timed_out);
  if trace then Format.printf "%a@." Rn_sim.Trace.pp tracer;
  print_mis_report dual det res.R.outputs

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print an activity sparkline of the run.")

let mis_cmd =
  Cmd.v
    (Cmd.info "mis" ~doc:"Run the Section 4 MIS algorithm on a random geometric network.")
    Term.(const run_mis $ n_arg $ degree_arg $ seed_arg $ tau_arg $ adversary_arg $ trace_arg)

(* --- ccds command --- *)

let run_ccds n degree seed tau b algo adversary =
  let dual, det = build_instance ~seed ~n ~degree ~tau in
  Printf.printf "instance: %s, Delta=%d\n" (Format.asprintf "%a" Dual.pp dual)
    (Dual.max_degree_g dual);
  let rounds, stats, timed_out, outputs =
    match algo with
    | `Banned ->
      if tau > 0 then
        failwith "the banned-list algorithm requires a 0-complete detector (--tau 0)";
      let res = Core.Ccds.run ~seed ?b_bits:b ~adversary ~detector:(Detector.static det) dual in
      (res.R.rounds, res.R.stats, res.R.timed_out, res.R.outputs)
    | `Explore ->
      let res =
        Core.Explore_ccds.run ~seed ?b_bits:b ~tau ~adversary ~detector:(Detector.static det)
          dual
      in
      (res.R.rounds, res.R.stats, res.R.timed_out, res.R.outputs)
  in
  summarize_engine "ccds" (rounds, stats, timed_out);
  print_ccds_report dual det outputs

let algo_arg =
  Arg.(
    value
    & opt (enum [ ("banned", `Banned); ("explore", `Explore) ]) `Banned
    & info [ "algo" ] ~doc:"CCDS algorithm: banned (Sec 5) or explore (Sec 6).")

let ccds_cmd =
  Cmd.v
    (Cmd.info "ccds" ~doc:"Run a CCDS algorithm on a random geometric network.")
    Term.(const run_ccds $ n_arg $ degree_arg $ seed_arg $ tau_arg $ b_arg $ algo_arg $ adversary_arg)

(* --- bridge command --- *)

let run_bridge beta seed =
  let r = Rn_games.Reduction.bridge_run ~beta ~seed () in
  Printf.printf "bridge beta=%d: rounds=%d solved=%b\n" beta r.rounds r.solved;
  List.iter (fun v -> Printf.printf "  violation: %s\n" v) r.report.violations

let beta_arg = Arg.(value & opt int 16 & info [ "beta" ] ~doc:"Clique size (Delta = beta).")

let bridge_cmd =
  Cmd.v
    (Cmd.info "bridge"
       ~doc:"Run the tau=1 CCDS on the Section 7 two-clique bridge network.")
    Term.(const run_bridge $ beta_arg $ seed_arg)

(* --- trace command --- *)

module Events = Rn_sim.Events

let rounds_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a <= b -> Ok (a, b)
      | _ -> Error (`Msg "expected LO:HI round range with LO <= HI"))
    | _ -> Error (`Msg "expected LO:HI round range")
  in
  Arg.conv (parse, fun ppf (a, b) -> Fmt.pf ppf "%d:%d" a b)

let trace_format_arg =
  Arg.(
    value
    & opt
        (enum [ ("chrome", Events.Chrome); ("jsonl", Events.Jsonl); ("sexp", Events.Sexp_format) ])
        Events.Chrome
    & info [ "format" ]
        ~doc:"Trace format: chrome (Perfetto-loadable JSON), jsonl, or sexp.")

let trace_out_arg =
  Arg.(value & opt string "trace.json" & info [ "out" ] ~docv:"FILE" ~doc:"Trace output file.")

let capacity_arg =
  Arg.(
    value & opt int 65536
    & info [ "capacity" ]
        ~doc:"Ring-buffer size: the newest N events are kept, older ones evicted.")

let rounds_filter_arg =
  Arg.(
    value
    & opt (some rounds_conv) None
    & info [ "rounds" ] ~docv:"LO:HI" ~doc:"Record only rounds in the inclusive range.")

let procs_filter_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "procs" ] ~docv:"IDS"
        ~doc:"Record process events only for these ids (round-scoped events always pass).")

let sample_arg =
  Arg.(
    value & opt int 1
    & info [ "sample" ] ~docv:"K" ~doc:"Record only rounds where round mod K = 0.")

let trace_algo_arg =
  Arg.(
    value
    & pos 0 (enum [ ("mis", `Mis); ("ccds", `Ccds); ("tdma", `Tdma) ]) `Mis
    & info [] ~docv:"ALGO" ~doc:"Algorithm to trace: mis, ccds, or tdma.")

let run_trace algo n degree seed tau b adversary out format capacity rounds procs sample =
  let dual, det = build_instance ~seed ~n ~degree ~tau in
  Printf.printf "instance: %s, Delta=%d\n" (Format.asprintf "%a" Dual.pp dual)
    (Dual.max_degree_g dual);
  let sink = Events.create ~capacity ?rounds ?procs ~sample () in
  let detector = Detector.static det in
  let name, summary =
    match algo with
    | `Mis ->
      let r = Core.Mis.run ~seed ?b_bits:b ~adversary ~sink ~detector dual in
      ("mis", (r.R.rounds, r.R.stats, r.R.timed_out))
    | `Ccds ->
      if tau > 0 then
        failwith "the banned-list CCDS requires a 0-complete detector (--tau 0)";
      let r = Core.Ccds.run ~seed ?b_bits:b ~adversary ~sink ~detector dual in
      ("ccds", (r.R.rounds, r.R.stats, r.R.timed_out))
    | `Tdma ->
      let r = Core.Tdma_ccds.run ~seed ?b_bits:b ~adversary ~sink ~detector dual in
      ("tdma", (r.R.rounds, r.R.stats, r.R.timed_out))
  in
  summarize_engine name summary;
  let evs = Events.events sink in
  let oc = open_out out in
  output_string oc (Events.export format evs);
  close_out oc;
  Printf.printf "trace: wrote %d events to %s (%s; emitted=%d evicted=%d filtered=%d)\n"
    (List.length evs) out
    (Events.format_name format)
    (Events.emitted sink) (Events.evicted sink) (Events.filtered sink)

let trace_run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a built-in algorithm with structured event tracing and write the trace to a \
          file (Chrome format loads in Perfetto / chrome://tracing).")
    Term.(
      const run_trace $ trace_algo_arg $ n_arg $ degree_arg $ seed_arg $ tau_arg $ b_arg
      $ adversary_arg $ trace_out_arg $ trace_format_arg $ capacity_arg $ rounds_filter_arg
      $ procs_filter_arg $ sample_arg)

let kind_order =
  [
    ("wake", 0); ("broadcast", 1); ("deliver", 2); ("collide", 3); ("gray", 4); ("decide", 5);
    ("skip", 6);
  ]

let run_trace_inspect file rounds proc top =
  let evs =
    match Events.of_string (In_channel.with_open_text file In_channel.input_all) with
    | evs -> evs
    | exception (Failure msg | Sys_error msg | Rn_util.Sexp.Parse_error { message = msg; _ })
      ->
      Printf.eprintf "rn_cli trace inspect: %s: %s\n" file msg;
      exit 2
  in
  let evs =
    match rounds with
    | None -> evs
    | Some (a, b) -> List.filter (fun e -> e.Events.round >= a && e.Events.round <= b) evs
  in
  let evs =
    match proc with
    | None -> evs
    | Some p -> List.filter (fun e -> e.Events.proc = p) evs
  in
  let lo, hi =
    List.fold_left
      (fun (lo, hi) e -> (min lo e.Events.round, max hi e.Events.round))
      (max_int, min_int) evs
  in
  if evs = [] then print_endline "0 events match"
  else begin
    Printf.printf "%d events, rounds %d..%d\n" (List.length evs) lo hi;
    (* Event counts per kind, in engine order. *)
    let counts = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let k = Events.kind_name e.Events.kind in
        Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
      evs;
    List.iter
      (fun (k, _) ->
        match Hashtbl.find_opt counts k with
        | Some c -> Printf.printf "  %-10s %d\n" k c
        | None -> ())
      kind_order;
    match proc with
    | Some p ->
      (* Per-process timeline. *)
      Printf.printf "timeline for proc %d:\n" p;
      List.iter (fun e -> Format.printf "  %a@." Events.pp_event e) evs
    | None ->
      (* Busiest rounds by broadcasters, then collision hotspots. *)
      let per_round = Hashtbl.create 64 in
      let bump r i =
        let b, d, c = Option.value (Hashtbl.find_opt per_round r) ~default:(0, 0, 0) in
        Hashtbl.replace per_round r
          (match i with
          | `B -> (b + 1, d, c)
          | `D -> (b, d + 1, c)
          | `C -> (b, d, c + 1))
      in
      let per_proc_coll = Hashtbl.create 64 in
      List.iter
        (fun e ->
          match e.Events.kind with
          | Events.Broadcast _ -> bump e.Events.round `B
          | Events.Deliver _ -> bump e.Events.round `D
          | Events.Collide _ ->
            bump e.Events.round `C;
            Hashtbl.replace per_proc_coll e.Events.proc
              (1 + Option.value (Hashtbl.find_opt per_proc_coll e.Events.proc) ~default:0)
          | _ -> ())
        evs;
      let top_by f tbl =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
        |> List.sort (fun (ka, a) (kb, b) ->
               let c = compare (f b) (f a) in
               if c <> 0 then c else compare ka kb)
        |> List.filteri (fun i _ -> i < top)
      in
      let busiest = top_by (fun (b, _, _) -> b) per_round in
      if busiest <> [] then begin
        Printf.printf "busiest rounds (by broadcasters):\n";
        List.iter
          (fun (r, (b, d, c)) ->
            Printf.printf "  r%-6d %d broadcasts, %d deliveries, %d collisions\n" r b d c)
          busiest
      end;
      let hot = top_by Fun.id per_proc_coll in
      if hot <> [] then begin
        Printf.printf "collision hotspots (by receiver):\n";
        List.iter (fun (p, c) -> Printf.printf "  p%-6d %d collisions\n" p c) hot
      end
  end

let trace_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Trace file to inspect.")

let proc_filter_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "proc" ] ~docv:"ID" ~doc:"Show the timeline of this process only.")

let top_arg =
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"Rows in the top-K tables.")

let trace_inspect_cmd =
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Query a trace file written by 'trace run' (any format): kind counts, busiest \
          rounds, collision hotspots, per-process timelines.")
    Term.(const run_trace_inspect $ trace_file_arg $ rounds_filter_arg $ proc_filter_arg $ top_arg)

(* The `trace` group is assembled after the experiment section: the
   `trace cell` subcommand re-runs one sweep cell and needs the store
   arguments defined there. *)

(* --- experiment command --- *)

module Store = Rn_util.Store

(* Store diagnostics go to stderr: the rendered tables on stdout must be
   byte-identical whether cells were computed or replayed from the
   cache (and identical to --no-cache).  Per-experiment metrics
   (--metrics) keep that property because each cell's snapshot rides in
   its store payload: a warm sweep reports the metrics recorded when the
   cell was computed. *)
let run_experiments ids full jobs profile metrics store_dir no_cache retry cell_timeout =
  let ids = if ids = [] then Rn_harness.All.ids else ids in
  (* Resolve every id before any cell runs: a typo exits 2 up front
     instead of after the sweep it was listed with. *)
  let experiments =
    List.map
      (fun id ->
        match Rn_harness.All.find id with
        | Some f -> f
        | None ->
          Printf.eprintf "rn_cli experiment: unknown experiment %s (known: %s)\n" id
            (String.concat ", " Rn_harness.All.ids);
          exit 2)
      ids
  in
  Rn_harness.Harness.set_jobs jobs;
  if profile then Rn_util.Timing.set_enabled true;
  if metrics then begin
    Rn_util.Metrics.set_enabled true;
    Rn_harness.Harness.reset_experiment_metrics ()
  end;
  let scale = if full then Rn_harness.Harness.Full else Rn_harness.Harness.Quick in
  let store =
    if no_cache then None
    else begin
      let s = Store.open_ store_dir in
      if Store.recovered_bytes s > 0 then
        Printf.eprintf "[store] dropped %d corrupt trailing bytes (interrupted run?)\n%!"
          (Store.recovered_bytes s);
      Rn_harness.Harness.set_store ~retry ?timeout:cell_timeout s;
      Some s
    end
  in
  let any_failed = ref false in
  List.iter
    (fun f ->
      match f scale with
      | r -> Rn_harness.Harness.print r
      | exception Rn_harness.Harness.Cell_failed { exp; failed; total } ->
        any_failed := true;
        Printf.eprintf
          "[store] %s: %d/%d cells failed; finished cells are cached, re-run to retry\n%!"
          exp failed total)
    experiments;
  (match store with
  | Some s ->
    let hits, misses, failures = Rn_harness.Harness.store_counters () in
    Printf.eprintf "[store] hits=%d misses=%d failed=%d dir=%s\n%!" hits misses failures
      store_dir;
    Store.write_last_run ~dir:store_dir ~hits ~misses ~failures;
    (* Slowest freshly-computed cells, for the nightly trace-the-slow-
       cells job (and for humans hunting sweep bottlenecks). *)
    (match Rn_harness.Harness.slowest_cells ~k:10 () with
    | [] -> ()
    | slow ->
      let path = Filename.concat store_dir "slowest.txt" in
      let oc = open_out path in
      List.iter (fun (label, t) -> Printf.fprintf oc "%.3f %s\n" t label) slow;
      close_out oc;
      Printf.eprintf "[store] slowest cells -> %s\n%!" path);
    Rn_harness.Harness.clear_store ();
    Store.close s
  | None -> ());
  if metrics then begin
    List.iter
      (fun (id, snap) ->
        Format.printf "=== metrics: %s ===@\n%a@\n" id Rn_util.Metrics.pp_snapshot snap)
      (Rn_harness.Harness.experiment_metrics ())
  end;
  if profile then Rn_util.Timing.print_report ();
  if !any_failed then exit 1

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")

let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"Full scale (slower, more sizes/reps).")

let jobs_arg =
  Arg.(
    value
    & opt int (Rn_util.Pool.recommended_jobs ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for experiment cells (default: cores - 1, capped). Tables are \
           identical for every value; 1 runs strictly sequentially.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print engine round-loop section timings (wake/collect/adversary/deliver/resume) \
           aggregated over all runs; see EXPERIMENTS.md for how to read the report.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Enable the metrics registry and print per-experiment aggregated counters and \
           histograms (engine.*, store.*, cell.*) after the tables.")

let store_arg =
  Arg.(
    value & opt string ".rn-store"
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Result store directory: finished cells are journalled there as they complete, \
           a re-run replays them, and a killed sweep resumes from the journal.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Disable the result store entirely: every cell is recomputed, nothing is written.")

let retry_arg =
  Arg.(
    value & opt int 0
    & info [ "retry" ] ~docv:"N"
        ~doc:
          "Re-run a cell that raises up to N extra times before recording it as failed \
           (cells are deterministic, so this rederives nothing: same key, same result).")

let cell_timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "cell-timeout" ] ~docv:"SEC"
        ~doc:
          "Per-cell wall-clock budget: a cell that reaches it is recorded as \
           failed-but-resumable and the rest of the sweep still runs (and caches).")

let experiment_cmd =
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the paper's experiment tables (see DESIGN.md).")
    Term.(
      const run_experiments $ ids_arg $ full_arg $ jobs_arg $ profile_arg $ metrics_arg
      $ store_arg $ no_cache_arg $ retry_arg $ cell_timeout_arg)

(* --- store command --- *)

let store_dir_pos =
  Arg.(value & opt string ".rn-store" & info [ "store" ] ~docv:"DIR" ~doc:"Store directory.")

let per_group records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Store.record_) ->
      let g = (r.key.exp, r.key.code_version, r.key.scale, r.key.env) in
      let ok, fl = Option.value (Hashtbl.find_opt tbl g) ~default:(0, 0) in
      Hashtbl.replace tbl g
        (match r.status with Store.Done -> (ok + 1, fl) | Store.Failed -> (ok, fl + 1)))
    records;
  Hashtbl.fold (fun g c acc -> (g, c) :: acc) tbl [] |> List.sort compare

(* Minimal JSON string escaping for the --json output (keys here are
   identifiers; only journal problem messages could be exotic). *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Fault-recovery counters mirrored by the sweep daemon into
   <dir>/daemon-stats.sexp (requeues, claim waits, heartbeat age) —
   absent when no daemon ever ran against this store. *)
let read_daemon_stats dir =
  let module Sx = Rn_util.Sexp in
  let path = Filename.concat dir "daemon-stats.sexp" in
  if not (Sys.file_exists path) then None
  else
    match Sx.parse_file path with
    | sx ->
      let int1 key =
        match Sx.assoc key sx with
        | Some [ v ] -> Option.value (Sx.as_int v) ~default:0
        | _ -> 0
      in
      let counters =
        match Sx.assoc "counters" sx with
        | Some entries ->
          List.filter_map
            (function
              | Sx.List [ Sx.Atom k; v ] -> Option.map (fun n -> (k, n)) (Sx.as_int v)
              | _ -> None)
            entries
        | None -> []
      in
      Some (counters, int1 "heartbeat-age-ms", int1 "workers-alive", int1 "inflight")
    | exception _ -> None

let run_store_stats dir json =
  let scan = Store.scan_file (Store.journal_path dir) in
  if json then begin
    let groups =
      List.map
        (fun ((exp, v, scale, env), (ok, fl)) ->
          Printf.sprintf
            {|{"exp":"%s","version":%d,"scale":"%s","env":"%s","ok":%d,"failed":%d}|}
            (json_escape exp) v (json_escape scale) (json_escape env) ok fl)
        (per_group scan.Store.good)
    in
    let problems = List.map (fun m -> "\"" ^ json_escape m ^ "\"") scan.Store.problems in
    let last_run =
      match Store.read_last_run ~dir with
      | Some (h, m, f) -> Printf.sprintf {|{"hits":%d,"misses":%d,"failures":%d}|} h m f
      | None -> "null"
    in
    let daemon =
      match read_daemon_stats dir with
      | None -> "null"
      | Some (counters, hb, alive, inflight) ->
        let kvs =
          List.map
            (fun (k, v) -> Printf.sprintf {|"%s":%d|} (json_escape k) v)
            counters
        in
        Printf.sprintf
          {|{"counters":{%s},"heartbeat_age_ms":%d,"workers_alive":%d,"inflight":%d}|}
          (String.concat "," kvs) hb alive inflight
    in
    Printf.printf
      {|{"dir":"%s","records":%d,"journal_bytes":%d,"intact_bytes":%d,"problems":[%s],"groups":[%s],"last_run":%s,"daemon":%s}|}
      (json_escape dir)
      (List.length scan.Store.good)
      scan.Store.total_bytes scan.Store.good_bytes (String.concat "," problems)
      (String.concat "," groups) last_run daemon;
    print_newline ()
  end
  else begin
    Printf.printf "store %s: %d records, journal %d bytes (%d intact)\n" dir
      (List.length scan.Store.good) scan.Store.total_bytes scan.Store.good_bytes;
    List.iter
      (fun m -> Printf.printf "  journal: %s\n" m)
      scan.Store.problems;
    List.iter
      (fun ((exp, v, scale, env), (ok, fl)) ->
        Printf.printf "  %-4s v%d %-5s %-6s %d ok%s\n" exp v scale env ok
          (if fl > 0 then Printf.sprintf ", %d failed" fl else ""))
      (per_group scan.Store.good);
    (match Store.read_last_run ~dir with
    | Some (h, m, f) ->
      let total = h + m in
      let pct = if total = 0 then 0.0 else 100.0 *. float_of_int h /. float_of_int total in
      Printf.printf "last run: hits=%d misses=%d failed=%d (%.1f%% hits)\n" h m f pct
    | None -> ());
    match read_daemon_stats dir with
    | None -> ()
    | Some (counters, hb, alive, inflight) ->
      let c k = Option.value (List.assoc_opt k counters) ~default:0 in
      Printf.printf
        "daemon: requeued=%d claim-waits=%d heartbeat-age=%.1fs workers-alive=%d in-flight=%d\n"
        (c "cells.requeued") (c "cells.claim_theirs")
        (float_of_int hb /. 1000.0)
        alive inflight
  end

let run_store_gc dir =
  let s = Store.open_ dir in
  let live = Rn_harness.All.versions in
  (* Must match the env the harness keys cells under (payload-format
     tag included), or gc would prune every live record. *)
  let env = Rn_harness.Harness.cell_env in
  let keep (r : Store.record_) =
    r.key.env = env
    && List.exists (fun (id, v) -> id = r.key.exp && v = r.key.code_version) live
  in
  let dropped = Store.gc s ~keep in
  Printf.printf "store %s: pruned %d stale records, kept %d\n" dir dropped (Store.count s);
  Store.close s

let run_store_verify dir =
  let path = Store.journal_path dir in
  let scan = Store.scan_file path in
  Printf.printf "store %s: %d records intact (%d/%d bytes)\n" dir
    (List.length scan.Store.good) scan.Store.good_bytes scan.Store.total_bytes;
  if scan.Store.problems <> [] then begin
    List.iter (fun m -> Printf.printf "  INTEGRITY: %s\n" m) scan.Store.problems;
    exit 1
  end

let store_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let store_cmd =
  let sub name doc f =
    Cmd.v (Cmd.info name ~doc) Term.(const f $ store_dir_pos)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Inspect and maintain the experiment result store.")
    [
      Cmd.v
        (Cmd.info "stats"
           ~doc:"Record counts per experiment/version and last-run hit rates.")
        Term.(const run_store_stats $ store_dir_pos $ store_json_arg);
      sub "gc" "Prune records with a stale code_version or engine digest." run_store_gc;
      sub "verify" "Re-hash every journal record and check integrity." run_store_verify;
    ]

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List experiment ids.")
    Term.(
      const (fun () -> List.iter print_endline Rn_harness.All.ids) $ const ())

(* --- scenario command --- *)

let run_scenario_files files =
  List.iter
    (fun path ->
      Printf.printf "== %s ==\n" path;
      match Rn_harness.Scenario.run_file path with
      | report -> print_string (Rn_harness.Scenario.render report)
      | exception Rn_harness.Scenario.Scenario_error m ->
        Printf.eprintf "scenario error: %s\n" m;
        exit 1
      | exception Rn_util.Sexp.Parse_error { pos; message } ->
        Printf.eprintf "parse error at %d: %s\n" pos message;
        exit 1)
    files

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Scenario files (.sexp).")

let scenario_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run declarative scenario files (see scenarios/*.sexp).")
    Term.(const run_scenario_files $ files_arg)

(* --- figures command --- *)

let run_figures out =
  match Rn_harness.Figures.write_all out with
  | paths -> List.iter (fun p -> Printf.printf "wrote %s\n" p) paths
  | exception Sys_error msg ->
    (* [msg] names the path that failed: the directory or a file in it *)
    Printf.eprintf "rn_cli figures: %s\n" msg;
    exit 2

let out_arg =
  Arg.(value & opt string "plots" & info [ "out" ] ~doc:"Output directory for SVG figures.")

let figures_cmd =
  Cmd.v
    (Cmd.info "figures" ~doc:"Render the scaling figures (F1-F4) as SVG files.")
    Term.(const run_figures $ out_arg)

(* --- scale command --- *)

let run_scale full out sizes kernel adv_kernel resume_shards adversary check =
  let scale = if full then Rn_harness.Harness.Full else Rn_harness.Harness.Quick in
  if resume_shards < 1 then begin
    Printf.eprintf "rn_cli scale: --resume-shards must be >= 1\n";
    exit 2
  end;
  let kernel = kernel_mode_of_string ~flag:"--kernel" kernel in
  let adv_kernel = kernel_mode_of_string ~flag:"--adv-kernel" adv_kernel in
  let sizes =
    match sizes with
    | None -> None
    | Some csv -> (
      match
        List.map
          (fun s ->
            let v = int_of_string (String.trim s) in
            if v < 2 then failwith "too small";
            v)
          (String.split_on_char ',' csv)
      with
      | l -> Some l
      | exception _ ->
        Printf.eprintf "rn_cli scale: bad --sizes %S (want a CSV of ints >= 2)\n" csv;
        exit 2)
  in
  Rn_harness.Harness.print
    (Rn_harness.Exp_scale.run ?out ?sizes ~kernel ~adv_kernel ~resume_shards
       ~adversary ~check scale)

let scale_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR" ~doc:"Also write the S1 log-log figure (SVG) into DIR.")

let scale_sizes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sizes" ] ~docv:"CSV"
        ~doc:"Override the size grid with a comma-separated list of n values.")

let scale_kernel_arg =
  Arg.(
    value & opt string "auto"
    & info [ "kernel" ] ~docv:"MODE"
        ~doc:"Delivery kernel mode: auto (cost model), on, or off (scalar path).")

let scale_adv_kernel_arg =
  Arg.(
    value & opt string "auto"
    & info [ "adv-kernel" ] ~docv:"MODE"
        ~doc:
          "Adversary kernel mode: auto (per-round cost model), on (forced for policies \
           that have one), or off (scalar path). Results are byte-identical either way.")

let scale_resume_shards_arg =
  Arg.(
    value & opt int 1
    & info [ "resume-shards" ] ~docv:"N"
        ~doc:
          "Shard the fiber resume loop across N domains in every round with at least \
           1024 live fibers. Results are byte-identical at any shard count.")

let scale_adversary_arg =
  Arg.(
    value
    & opt adversary_conv (Rn_sim.Adversary.bernoulli 0.5)
    & info [ "adversary" ]
        ~doc:
          "Gray-edge policy for the beacon workload: \
           silent|all|spiteful|jamming|bernoulli:P|harassing:P.")

let scale_check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Print only the deterministic columns (counts, no timings), suitable for \
           byte-comparison across --kernel/--adv-kernel/--resume-shards settings.")

let scale_cmd =
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Wall-clock scaling sweep (S1): world-generation time and beacon-workload \
          round throughput vs n, with fitted exponents. Quick stops at n=8192; --full \
          goes to n=1048576. Timings are machine-dependent, so this never touches the \
          result store.")
    Term.(
      const run_scale $ full_arg $ scale_out_arg $ scale_sizes_arg $ scale_kernel_arg
      $ scale_adv_kernel_arg $ scale_resume_shards_arg
      $ scale_adversary_arg $ scale_check_arg)

(* --- graph command --- *)

let run_graph_stats file =
  let t0 = Unix.gettimeofday () in
  let scenario =
    match Rn_harness.Scenario.parse (Rn_util.Sexp.parse_file file) with
    | s -> s
    | exception Rn_harness.Scenario.Scenario_error m ->
      Printf.eprintf "scenario error: %s\n" m;
      exit 1
    | exception Rn_util.Sexp.Parse_error { pos; message } ->
      Printf.eprintf "parse error at %d: %s\n" pos message;
      exit 1
  in
  let dual = Rn_harness.Scenario.build_network scenario in
  let build_s = Unix.gettimeofday () -. t0 in
  let n = Dual.n dual in
  let g = Dual.g dual and g' = Dual.g' dual in
  let m = Rn_graph.Graph.edge_count g and m' = Rn_graph.Graph.edge_count g' in
  let gray = Dual.gray_count dual in
  Printf.printf "%s: n=%d |E|=%d |E'|=%d gray=%d (%.1f%% of E')\n" file n m m' gray
    (if m' = 0 then 0.0 else 100.0 *. float_of_int gray /. float_of_int m');
  Printf.printf "degree: G max=%d mean=%.1f, G' max=%d mean=%.1f\n" (Dual.max_degree_g dual)
    (if n = 0 then 0.0 else 2.0 *. float_of_int m /. float_of_int n)
    (Dual.max_degree_g' dual)
    (if n = 0 then 0.0 else 2.0 *. float_of_int m' /. float_of_int n);
  (* Power-of-two degree histogram over G, matching the metrics registry's
     bucket geometry so the shapes are comparable across tools. *)
  let hist =
    Rn_util.Metrics.hist_of_values
      (List.init n (fun v -> Rn_graph.Graph.degree g v))
  in
  Printf.printf "G degree histogram (bucket upper bound: count):\n";
  List.iter (fun (ub, c) -> Printf.printf "  <=%-6d %d\n" ub c) hist.Rn_util.Metrics.buckets;
  (match Dual.positions dual with
  | Some _ -> Printf.printf "embedding: geometric, d=%.2f\n" (Dual.d dual)
  | None -> Printf.printf "embedding: none\n");
  Printf.printf "build time: %.3fs\n" build_s

let scenario_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Scenario file (.sexp) naming the network to build.")

let graph_cmd =
  Cmd.group (Cmd.info "graph" ~doc:"Inspect network instances without running anything.")
    [
      Cmd.v
        (Cmd.info "stats"
           ~doc:
             "Build the network of a scenario file and print its size, degree \
              distribution, gray fraction, and build time.")
        Term.(const run_graph_stats $ scenario_file_arg);
    ]

(* --- broadcast command --- *)

let run_broadcast n degree seed adversary protocol =
  let dual, det = build_instance ~seed ~n ~degree ~tau:0 in
  let proto, rounds =
    match protocol with
    | `Flood -> (Rn_broadcast.Broadcast.Flood 0.1, 12 * n)
    | `Decay -> (Rn_broadcast.Broadcast.Decay (2 * Rn_util.Ilog.log2_up n), 12 * n)
    | `Round_robin ->
      (Rn_broadcast.Broadcast.Round_robin, Rn_broadcast.Broadcast.round_robin_budget dual ~source:0)
    | `Backbone ->
      let ccds = Core.Ccds.run ~seed ~adversary ~detector:(Detector.static det) dual in
      let bb = Array.map (fun o -> o = Some 1) ccds.R.outputs in
      (Rn_broadcast.Broadcast.Backbone { relay = (fun v -> bb.(v)); p = 0.1 }, 12 * n)
  in
  let r = Rn_broadcast.Broadcast.run ~adversary ~seed ~protocol:proto ~source:0 ~rounds dual in
  Printf.printf "coverage=%d/%d transmissions=%d bits=%d rounds=%d\n" r.coverage n r.sends
    r.bits_sent r.rounds

let protocol_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("flood", `Flood);
             ("decay", `Decay);
             ("round-robin", `Round_robin);
             ("backbone", `Backbone);
           ])
        `Flood
    & info [ "protocol" ] ~doc:"flood | decay | round-robin | backbone.")

let broadcast_cmd =
  Cmd.v
    (Cmd.info "broadcast" ~doc:"Disseminate a token from node 0 and report coverage/cost.")
    Term.(const run_broadcast $ n_arg $ degree_arg $ seed_arg $ adversary_arg $ protocol_arg)

(* --- repair command --- *)

let run_repair n degree seed adversary orphans =
  let dual, det0 = build_instance ~seed ~n ~degree ~tau:0 in
  let build = Core.Ccds.run ~seed ~adversary ~detector:(Detector.static det0) dual in
  let old_outputs = build.R.outputs in
  let old_masters =
    Array.map
      (function Some (o : Core.Ccds.outcome) -> o.mis_neighbors | None -> [])
      build.R.returns
  in
  let old_dominators =
    Array.map (function Some (o : Core.Ccds.outcome) -> o.in_mis | None -> false) build.R.returns
  in
  (* orphan up to [orphans] covered processes *)
  let current = ref dual and count = ref 0 in
  Array.iteri
    (fun v o ->
      if !count < orphans && o = Some 0 && old_masters.(v) <> [] then begin
        let candidate =
          Dual.demote_edges !current (List.map (fun m -> (v, m)) old_masters.(v))
        in
        if Rn_graph.Algo.is_connected (Dual.g candidate) then begin
          current := candidate;
          incr count
        end
      end)
    old_outputs;
  let dual1 = !current in
  Printf.printf "demoted the master links of %d processes\n" !count;
  let det1 = Detector.perfect (Dual.g dual1) in
  let rep =
    Core.Repair.run ~seed:(seed + 1) ~adversary ~detector:(Detector.static det1) ~old_outputs
      ~old_dominators ~old_masters dual1
  in
  summarize_engine "repair" (rep.R.rounds, rep.R.stats, rep.R.timed_out);
  Printf.printf "churn: %.1f%%\n"
    (100.0 *. Core.Repair.churn ~before:old_outputs ~after:rep.R.outputs);
  print_ccds_report dual1 det1 rep.R.outputs

let orphans_arg =
  Arg.(value & opt int 3 & info [ "orphans" ] ~doc:"Covered processes to orphan.")

let repair_cmd =
  Cmd.v
    (Cmd.info "repair"
       ~doc:"Build a CCDS, degrade some links, and run the localized repair protocol.")
    Term.(const run_repair $ n_arg $ degree_arg $ seed_arg $ adversary_arg $ orphans_arg)

(* --- trace cell: re-run one sweep cell under an Events sink --- *)

(* Same code path as a worker's [Trace_task] (lib/serve/worker.ml), so
   `rn_cli trace cell` and `rn_cli serve trace` produce byte-identical
   Chrome traces for the same store — determinism makes the warm re-run
   faithful to the original compute. *)
let run_trace_cell exp coord full store_dir out =
  if Rn_harness.All.find exp = None then begin
    Printf.eprintf "rn_cli: unknown experiment %s (known: %s)\n" exp
      (String.concat ", " Rn_harness.All.ids);
    exit 2
  end;
  let scale = if full then Rn_harness.Harness.Full else Rn_harness.Harness.Quick in
  let store = Store.open_ store_dir in
  let data =
    Fun.protect
      ~finally:(fun () ->
        Rn_harness.Harness.clear_trace_target ();
        Rn_harness.Harness.clear_store ();
        Store.close store)
      (fun () ->
        Rn_harness.Harness.set_store store;
        Rn_harness.Harness.set_jobs 1;
        Rn_harness.Harness.set_trace_target ~exp ~coord ();
        (match Rn_harness.All.find exp with
        | Some f -> (
          match f scale with
          | _ -> ()
          | exception Rn_harness.Harness.Cell_failed _ -> ())
        | None -> ());
        match Rn_harness.Harness.take_trace_events () with
        | Some evs -> Rn_sim.Events.to_chrome evs
        | None ->
          Printf.eprintf "rn_cli: no cell %s in %s @%s\n" coord exp
            (if full then "full" else "quick");
          exit 1)
  in
  match out with
  | None ->
    print_string data;
    flush stdout
  | Some path ->
    Out_channel.with_open_bin path (fun oc -> output_string oc data);
    Printf.eprintf "trace: wrote %d bytes to %s\n" (String.length data) path

let trace_exp_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"EXP" ~doc:"Experiment id (see 'rn_cli list').")

let trace_coord_pos =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"COORD"
        ~doc:
          "Cell coordinate as printed in slowest.txt, e.g. \"n=256,seed=1\" — the label's \
           last /-separated component.")

let trace_out_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the Chrome trace here (default: stdout).")

let trace_cell_cmd =
  Cmd.v
    (Cmd.info "cell"
       ~doc:
         "Re-run one experiment sweep cell with event tracing and emit its Chrome trace \
          (loads in Perfetto). The rest of the sweep replays warm from the store; the \
          target cell is recomputed under the sink, byte-faithful to the original run.")
    Term.(
      const run_trace_cell $ trace_exp_pos $ trace_coord_pos $ full_arg $ store_arg
      $ trace_out_file_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Structured event tracing: record and query engine event traces.")
    [ trace_run_cmd; trace_inspect_cmd; trace_cell_cmd ]

(* --- the sweep service (serve / work / submit / status / ...) ---

   `rn_cli serve` runs the daemon, `rn_cli work` is the worker entry
   point the daemon spawns, and the rest are one-shot thin clients.
   Tables printed by `submit --wait` / `results` are byte-identical to
   `rn_cli experiment` output (see EXPERIMENTS.md, "The sweep service"). *)

module Serve_p = Rn_serve.Protocol
module Serve_client = Rn_serve.Client

let socket_arg =
  Arg.(
    value
    & opt string (Filename.concat ".rn-store" "serve.sock")
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket the daemon listens on.")

let job_pos = Arg.(required & pos 0 (some int) None & info [] ~docv:"JOB" ~doc:"Job id.")

(* One-shot client request with a friendly connection error. *)
let serve_request socket req =
  match Serve_client.request ~socket req with
  | resp -> resp
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
    Printf.eprintf "rn_cli: no daemon at %s (start one with: rn_cli serve)\n" socket;
    exit 1

let die_err m =
  Printf.eprintf "rn_cli: %s\n" m;
  exit 1

let run_serve socket store_dir workers heartbeat log_file =
  Rn_serve.Daemon.run ~workers ~heartbeat ~socket ~store_dir ~log_file ()

let serve_workers_arg =
  Arg.(
    value
    & opt int (Rn_util.Pool.recommended_jobs ())
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker processes to keep alive while jobs are open (default: cores - 1, \
           capped). Tables are identical at any worker count.")

let serve_heartbeat_arg =
  Arg.(
    value & opt float 60.0
    & info [ "heartbeat-timeout" ] ~docv:"SEC"
        ~doc:
          "Declare a connected-but-silent worker dead after this long and requeue its \
           claimed cells (socket EOF requeues immediately; this is the backstop for hung \
           workers).")

let serve_log_arg =
  Arg.(
    value & opt string "-"
    & info [ "log" ] ~docv:"PATH"
        ~doc:
          "Write the daemon log (with monotonic timestamps; spawned workers' stderr too) \
           to this file, rotating any previous log to PATH.1 at startup. \"-\" (default) \
           keeps stderr.")

let serve_daemon_term =
  Term.(
    const run_serve $ socket_arg $ store_arg $ serve_workers_arg $ serve_heartbeat_arg
    $ serve_log_arg)

(* --- serve telemetry subcommands (top / metrics / health / trace) --- *)

let run_serve_health socket =
  match serve_request socket Serve_p.Health with
  | Serve_p.Health_r h -> print_string (Serve_client.format_health h)
  | Serve_p.Err m -> die_err m
  | _ -> die_err "unexpected health reply"

let serve_health_cmd =
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "One-shot daemon health: worker heartbeat ages, queue depths, requeue counters, \
          journal size and growth.")
    Term.(const run_serve_health $ socket_arg)

let run_serve_metrics socket format =
  match serve_request socket Serve_p.Metrics_reg with
  | Serve_p.Metrics_reg_r s -> (
    let snap =
      match Rn_util.Metrics.snapshot_of_sexp (Rn_util.Sexp.parse_string s) with
      | snap -> snap
      | exception _ -> die_err "malformed metrics snapshot from daemon"
    in
    match format with
    | `Json -> print_endline (Rn_util.Metrics.to_json snap)
    | `Prometheus -> print_string (Rn_util.Metrics.to_prometheus snap)
    | `Sexp -> print_endline s)
  | Serve_p.Err m -> die_err m
  | _ -> die_err "unexpected metrics reply"

let serve_metrics_format_arg =
  Arg.(
    value
    & opt (enum [ ("json", `Json); ("prometheus", `Prometheus); ("sexp", `Sexp) ]) `Json
    & info [ "format" ] ~docv:"FMT" ~doc:"json | prometheus | sexp.")

let serve_metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Full metrics-registry exposition: the daemon's registry, the scheduler \
          counters, and the latest pushed per-worker snapshots merged into one \
          (commutative merge, so worker arrival order is irrelevant).")
    Term.(const run_serve_metrics $ socket_arg $ serve_metrics_format_arg)

let run_serve_trace socket exp coord full out =
  let scale = if full then Serve_p.Full else Serve_p.Quick in
  match serve_request socket (Serve_p.Trace { exp; scale; coord }) with
  | Serve_p.Trace_r data -> (
    match out with
    | None ->
      print_string data;
      flush stdout
    | Some path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc data);
      Printf.eprintf "trace: wrote %d bytes to %s\n" (String.length data) path)
  | Serve_p.Err m -> die_err m
  | _ -> die_err "unexpected trace reply"

let serve_trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Ask a worker to re-run one finished cell under an event sink and print its \
          Chrome trace — byte-identical to 'rn_cli trace cell' on the same store \
          (blocks until a worker delivers it).")
    Term.(
      const run_serve_trace $ socket_arg $ trace_exp_pos $ trace_coord_pos $ full_arg
      $ trace_out_file_arg)

(* `serve top`: self-refreshing terminal dashboard.  Plain ANSI clear +
   reprint — no terminal library, works in any VT100-ish terminal.
   Cells/sec comes from successive samples of each worker's lifetime
   cell counter; the ETA is in-flight cells x mean cell time spread over
   the live workers (a store-hit-heavy job finishes far sooner). *)
let run_serve_top socket interval count =
  let prev : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let prev_t = ref None in
  let iter = ref 0 in
  let continue () = match count with None -> true | Some n -> !iter < n in
  while continue () do
    incr iter;
    let h =
      match serve_request socket Serve_p.Health with
      | Serve_p.Health_r h -> h
      | Serve_p.Err m -> die_err m
      | _ -> die_err "unexpected health reply"
    in
    let jobs =
      match serve_request socket (Serve_p.Status None) with
      | Serve_p.Status_r { jobs; _ } -> jobs
      | _ -> []
    in
    let now = Unix.gettimeofday () in
    let dt = match !prev_t with None -> 0.0 | Some t -> now -. t in
    prev_t := Some now;
    let b = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    add "rn serve top  -  uptime %.0fs  jobs %d open / %d total  waiters %d\n"
      (float_of_int h.Serve_p.uptime_ms /. 1000.0)
      h.Serve_p.jobs_open h.Serve_p.jobs_total h.Serve_p.waiters;
    add "cells: done %d  hit %d  failed %d  requeued %d  in-flight %d  mean %.1f ms\n\n"
      h.Serve_p.done_cells h.Serve_p.hit_cells h.Serve_p.failed_cells h.Serve_p.requeued
      h.Serve_p.inflight
      (float_of_int h.Serve_p.mean_cell_us /. 1000.0);
    List.iter
      (fun (s : Serve_p.job_summary) ->
        add "job %-3d %-9s exps %d/%d  cells %d (failed %d)  hits %d  misses %d  [%s @%s]\n"
          s.Serve_p.job
          (Serve_p.state_name s.Serve_p.state)
          s.Serve_p.exps_done
          (List.length s.Serve_p.spec.Serve_p.exps)
          s.Serve_p.cells_done s.Serve_p.cells_failed s.Serve_p.hits s.Serve_p.misses
          (String.concat "," s.Serve_p.spec.Serve_p.exps)
          (Serve_p.scale_name s.Serve_p.spec.Serve_p.scale))
      jobs;
    if jobs <> [] then add "\n";
    let total_rate = ref 0.0 and rate_known = ref false and alive = ref 0 in
    List.iter
      (fun (w : Serve_p.worker_health) ->
        if w.Serve_p.halive then incr alive;
        (* A rate needs two samples of the same worker's counter: on the
           first frame (dt = 0), or the first time a worker appears, or
           after a counter reset (respawn), there is no rate yet — render
           "--" instead of 0.0 or a divide-by-dt spike. *)
        let before = Hashtbl.find_opt prev w.Serve_p.hwid in
        Hashtbl.replace prev w.Serve_p.hwid w.Serve_p.hcells;
        let rate =
          match before with
          | Some b when dt > 0.0 && w.Serve_p.hcells >= b ->
            Some (float_of_int (w.Serve_p.hcells - b) /. dt)
          | _ -> None
        in
        (match rate with
        | Some r ->
          total_rate := !total_rate +. r;
          rate_known := true
        | None -> ());
        add "worker %-2d pid %-7d %-5s heartbeat %5.1fs  cells %-6d %s%s\n"
          w.Serve_p.hwid w.Serve_p.hpid
          (if w.Serve_p.halive then "alive" else "lost")
          (float_of_int w.Serve_p.hage_ms /. 1000.0)
          w.Serve_p.hcells
          (match rate with
          | Some r -> Printf.sprintf "%6.1f cells/s" r
          | None -> "    -- cells/s")
          (match w.Serve_p.hjob with
          | None -> ""
          | Some j -> Printf.sprintf "  job %d" j))
      h.Serve_p.hworkers;
    if !rate_known then add "throughput %.1f cells/s" !total_rate
    else add "throughput -- cells/s";
    (* No mean cell time yet (nothing finished) means the ETA is unknown,
       not zero — say so rather than hiding it while work is in flight. *)
    if h.Serve_p.inflight > 0 && !alive > 0 then
      if h.Serve_p.mean_cell_us > 0 then
        add "  eta ~%.0fs (in-flight x mean / workers)"
          (float_of_int (h.Serve_p.inflight * h.Serve_p.mean_cell_us)
          /. 1e6 /. float_of_int !alive)
      else add "  eta -- (no finished cells yet)";
    add "\n";
    (match h.Serve_p.slow_claims with
    | [] -> ()
    | slow ->
      add "\nslowest in-flight cells:\n";
      List.iter
        (fun (key, wid, age_ms) ->
          add "  %8.1fs  w%-2d  %s\n" (float_of_int age_ms /. 1000.0) wid key)
        slow);
    if Unix.isatty Unix.stdout then print_string "\027[H\027[2J";
    print_string (Buffer.contents b);
    flush stdout;
    if continue () then Unix.sleepf interval
  done

let top_interval_arg =
  Arg.(
    value & opt float 2.0
    & info [ "interval" ] ~docv:"SEC" ~doc:"Refresh period in seconds.")

let top_count_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n" ] ~docv:"N" ~doc:"Render N frames and exit (default: refresh forever).")

let serve_top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Self-refreshing terminal dashboard for the daemon: queue state, per-worker \
          throughput, cells/sec, ETA, slowest in-flight cells. Ctrl-C to quit.")
    Term.(const run_serve_top $ socket_arg $ top_interval_arg $ top_count_arg)

let serve_cmd =
  Cmd.group ~default:serve_daemon_term
    (Cmd.info "serve"
       ~doc:
         "Run the sweep daemon: accept submitted experiment sweeps and fan their cells \
          out to worker processes sharing one result store. Subcommands watch a running \
          daemon (top, metrics, health, trace).")
    [ serve_top_cmd; serve_metrics_cmd; serve_health_cmd; serve_trace_cmd ]

let work_cmd =
  Cmd.v
    (Cmd.info "work"
       ~doc:"Worker entry point; normally spawned by the daemon, not run by hand.")
    Term.(const (fun socket -> Rn_serve.Worker.run ~socket ()) $ socket_arg)

(* "exp|scale|vN|env|coord" -> "exp coord": the readable slice of a
   store key for the one-line progress display. *)
let short_key k =
  match String.split_on_char '|' k with
  | exp :: _ :: _ :: _ :: coord :: _ -> exp ^ " " ^ coord
  | _ -> k

(* Live progress rendering for `submit --wait --progress`.  On a tty the
   line redraws in place; piped (CI, the smoke test) each event becomes
   its own greppable line with its monotone sequence number. *)
let progress_renderer job =
  let tty = Unix.isatty Unix.stderr in
  let counts = Hashtbl.create 8 in
  let t0 = Unix.gettimeofday () in
  fun (p : Serve_p.progress) ->
    let name = Serve_p.phase_name p.Serve_p.phase in
    Hashtbl.replace counts name
      (1 + Option.value (Hashtbl.find_opt counts name) ~default:0);
    if tty then begin
      let c k = Option.value (Hashtbl.find_opt counts k) ~default:0 in
      Printf.eprintf "\r[job %d +%.1fs] done %d  hit %d  failed %d  requeued %d  (%s %s)\027[K%!"
        job
        (Unix.gettimeofday () -. t0)
        (c "done") (c "hit") (c "failed") (c "requeued")
        name
        (short_key p.Serve_p.pkey)
    end
    else
      Printf.eprintf "progress seq=%d job=%d worker=%d phase=%s us=%d key=%s\n%!"
        p.Serve_p.pseq p.Serve_p.pjob p.Serve_p.pworker name p.Serve_p.pus
        (short_key p.Serve_p.pkey)

let run_submit socket ids full jobs retry wait progress =
  let ids = if ids = [] then Rn_harness.All.ids else ids in
  let spec =
    {
      Serve_p.exps = ids;
      scale = (if full then Serve_p.Full else Serve_p.Quick);
      jobs;
      retry;
    }
  in
  let io =
    match Serve_client.connect socket with
    | io -> io
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      Printf.eprintf "rn_cli: no daemon at %s (start one with: rn_cli serve)\n" socket;
      exit 1
  in
  Fun.protect
    ~finally:(fun () -> Serve_client.close io)
    (fun () ->
      match Serve_client.rpc io (Serve_p.Submit spec) with
      | Serve_p.Err m -> die_err m
      | Serve_p.Job_id j ->
        if not wait then Printf.printf "job %d\n" j
        else begin
          (* stdout stays pure tables; progress goes to stderr *)
          Printf.eprintf "job %d submitted, waiting...\n%!" j;
          let final =
            if progress then begin
              let r = Serve_client.wait_progress io j ~on_progress:(progress_renderer j) in
              if Unix.isatty Unix.stderr then Printf.eprintf "\n%!";
              r
            end
            else Serve_client.rpc io (Serve_p.Wait { job = j; progress = false })
          in
          (match final with
          | Serve_p.Ok_unit -> ()
          | Serve_p.Err m -> die_err m
          | _ -> die_err "unexpected wait reply");
          match Serve_client.rpc io (Serve_p.Results j) with
          | Serve_p.Results_r out ->
            print_string out;
            flush stdout
          | Serve_p.Err m -> die_err m
          | _ -> die_err "unexpected results reply"
        end
      | _ -> die_err "unexpected submit reply")

let submit_wait_arg =
  Arg.(
    value & flag
    & info [ "wait" ]
        ~doc:"Block until the job finishes and print its tables to stdout.")

let submit_jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Cell domains per worker process.")

let submit_progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "With --wait, stream per-cell progress events to stderr as they happen (live \
           line on a tty, one line per event when piped). Tables on stdout are unchanged.")

let submit_cmd =
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit an experiment sweep to the daemon.")
    Term.(
      const run_submit $ socket_arg $ ids_arg $ full_arg $ submit_jobs_arg $ retry_arg
      $ submit_wait_arg $ submit_progress_arg)

let run_status socket jid metrics =
  if metrics then
    match serve_request socket Serve_p.Metrics with
    | Serve_p.Metrics_r kvs ->
      List.iter (fun (k, v) -> Printf.printf "%-18s %d\n" k v) kvs
    | Serve_p.Err m -> die_err m
    | _ -> die_err "unexpected metrics reply"
  else
    match serve_request socket (Serve_p.Status jid) with
    | Serve_p.Status_r { jobs; workers } ->
      print_string (Serve_client.format_status jobs workers)
    | Serve_p.Err m -> die_err m
    | _ -> die_err "unexpected status reply"

let status_job_pos =
  Arg.(value & pos 0 (some int) None & info [] ~docv:"JOB" ~doc:"Show only this job.")

let status_metrics_arg =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Print the daemon's scheduler counters instead.")

let status_cmd =
  Cmd.v
    (Cmd.info "status" ~doc:"Show the daemon's jobs and workers (pids included).")
    Term.(const run_status $ socket_arg $ status_job_pos $ status_metrics_arg)

let run_results socket j =
  match serve_request socket (Serve_p.Results j) with
  | Serve_p.Results_r out ->
    print_string out;
    flush stdout
  | Serve_p.Err m -> die_err m
  | _ -> die_err "unexpected results reply"

let results_cmd =
  Cmd.v
    (Cmd.info "results" ~doc:"Print a finished job's tables (byte-identical to a direct run).")
    Term.(const run_results $ socket_arg $ job_pos)

let run_cancel socket j =
  match serve_request socket (Serve_p.Cancel j) with
  | Serve_p.Ok_unit -> Printf.printf "job %d cancelled\n" j
  | Serve_p.Err m -> die_err m
  | _ -> die_err "unexpected cancel reply"

let cancel_cmd =
  Cmd.v
    (Cmd.info "cancel" ~doc:"Cancel a queued or running job.")
    Term.(const run_cancel $ socket_arg $ job_pos)

let run_shutdown socket =
  match serve_request socket Serve_p.Shutdown with
  | Serve_p.Ok_unit -> print_endline "daemon stopping"
  | Serve_p.Err m -> die_err m
  | _ -> die_err "unexpected shutdown reply"

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Stop the daemon (the store journal keeps all finished cells).")
    Term.(const run_shutdown $ socket_arg)

let main =
  Cmd.group
    (Cmd.info "rn_cli" ~version:"1.0.0"
       ~doc:"Dual graph radio network algorithms (Censor-Hillel et al., PODC 2011).")
    [
      mis_cmd; ccds_cmd; bridge_cmd; experiment_cmd; list_cmd; figures_cmd; broadcast_cmd;
      repair_cmd; scenario_cmd; store_cmd; trace_cmd; scale_cmd; graph_cmd; serve_cmd;
      work_cmd; submit_cmd; status_cmd; results_cmd; cancel_cmd; shutdown_cmd;
    ]

let () = exit (Cmd.eval main)
