(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --emit-expected

   NAME is one of tables-cold, tables-served, beacon-bernoulli-32k,
   beacon-spiteful-32k, or "all" (every workload from one command, each
   in a forked child).
   With --trace 0 it measures the end-to-end metrics with tracing, the
   registry and Timing off; with --trace 1 it makes the traced run that
   reports the per-layer metrics and writes its spans as Chrome-trace
   JSON to _perfbench/trace-NAME-seedN.json.  Summary lines come
   first; the last line of stdout is the JSON result.
   --emit-expected prints perfbench/expected.txt from fresh direct sweeps. *)

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None
  and seed = ref 0
  and seconds = ref 10.0
  and trace = ref false
  and emit = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with Some s -> s | None -> usage ());
      go rest
    | "--seconds" :: v :: rest ->
      seconds := (match float_of_string_opt v with Some s when s > 0.0 -> s | _ -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
      go rest
    | "--emit-expected" :: rest ->
      emit := true;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  (!workload, !seed, !seconds, !trace, !emit)

let emit_expected () =
  let sweep = Sweep.cold (Workloads.tables_exps @ Workloads.served_exps) in
  List.iter
    (fun e -> Printf.printf "%s %s\n" e.Sweep.id (Sweep.digest e.Sweep.output))
    sweep.exps

let print_self_times spans =
  Printf.printf "%-28s %6s %12s %12s\n" "span" "calls" "total_s" "self_s";
  List.iter
    (fun (name, (calls, total, self)) ->
      Printf.printf "%-28s %6d %12.6f %12.6f\n" name calls total self)
    (Span.by_name spans)

let run_one (w : Workloads.workload) ~seed ~seconds ~trace =
  if trace then begin
    Span.enabled := true;
    let r = Workloads.traced_report w ~seed in
    Span.enabled := false;
    let spans = Span.spans () in
    let path =
      Filename.concat Measure.work_root (Printf.sprintf "trace-%s-seed%d.json" w.name seed)
    in
    Span.write_chrome path spans;
    print_self_times spans;
    Printf.printf "trace written to %s\n" path;
    r
  end
  else w.e2e ~seed ~seconds

(* One workload, with a raise turned into a failed result. *)
let guarded (w : Workloads.workload) ~seed ~seconds ~trace =
  match run_one w ~seed ~seconds ~trace with
  | r ->
    Report.print_summary r;
    r
  | exception e ->
    Printf.eprintf "perfbench: %s raised %s\n%!" w.name (Printexc.to_string e);
    { Report.workload = w.name; attempted = 1; failed = 1; metrics = []; notes = [] }

(* Several workloads from one command: each runs in a forked child, so
   no workload's heap (the OCaml runtime keeps what it has grown) or peak
   RSS carries into the next.  The child sends its report back over a
   pipe.  No other domain is running at a fork: every workload joins the
   domains it spawns. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let r = Fun.protect ~finally:Measure.cleanup f in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (r : Report.t) [];
    close_out oc;
    exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic) in
    ignore (Unix.waitpid [] pid);
    (r : Report.t)

let bench () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload, seed, seconds, trace, emit = parse Sys.argv in
  Fun.protect ~finally:Measure.cleanup (fun () ->
      if emit then emit_expected ()
      else
        match workload with
        | Some "all" ->
          let rs =
            List.map
              (fun w -> in_child (fun () -> guarded w ~seed ~seconds ~trace))
              Workloads.all
          in
          List.iter (fun r -> print_endline (Report.json r)) rs;
          print_endline (Report.combined_json rs)
        | Some name -> (
          match List.find_opt (fun w -> w.Workloads.name = name) Workloads.all with
          | Some w -> print_endline (Report.json (guarded w ~seed ~seconds ~trace))
          | None ->
            Printf.eprintf "unknown workload %s (known: all, %s)\n" name
              (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
            exit 2)
        | None -> usage ())

(* main.exe --serve-role ... is a served workload's daemon or worker
   process (see served.ml). *)
let () =
  match Array.to_list Sys.argv with
  | _ :: "--serve-role" :: args -> Served.child args
  | _ -> bench ()
