(* Served sweeps: a `rn_cli serve` daemon and one `rn_cli work` worker,
   each its own process running [Rn_serve.Daemon.run] or
   [Rn_serve.Worker.run] (main.exe re-executed with --serve-role), and
   the benchmark as a single-threaded client on the same unix socket.

   Every process has one domain.  As domains of one process, each minor
   collection of the worker would stop the client and daemon too, and on
   a host that time-slices its virtual CPUs that makes the sweep time
   swing far more than single-domain work does. *)

module P = Rn_serve.Protocol
module C = Rn_serve.Client

(* What a child process reports when it exits: its peak RSS and its GC
   activity over its whole life. *)
type child_stat = { hwm_mb : float; gc : Measure.gc_delta }

let write_stat path =
  let s = Gc.quick_stat () in
  let oc = open_out path in
  Printf.fprintf oc "%.17g %d %d %.17g\n" (Measure.peak_rss_mb ()) s.Gc.minor_collections
    s.Gc.major_collections
    (float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  close_out oc

let read_stat path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      Scanf.sscanf (input_line ic) " %f %d %d %f" (fun hwm_mb minor major top_heap_mb ->
          { hwm_mb; gc = { Measure.minor; major; top_heap_mb } }))

(* The body of a child process, from the arguments after --serve-role.
   The worker polls for work every millisecond rather than the CLI's
   200 ms, so a sweep's time does not depend on where in that nap the
   job arrived, and it pushes no metrics (the push runs on a second
   domain; the daemon's 60 s heartbeat is far longer than a sweep).  A
   worker that writes to a daemon which has just shut down gets EPIPE,
   not a fatal SIGPIPE. *)
let child args =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match args with
  | [ "daemon"; socket; store_dir; stat ] ->
    Rn_serve.Daemon.run ~spawn:false ~socket ~store_dir ();
    write_stat stat
  | [ "worker"; socket; stat ] ->
    Rn_serve.Worker.run ~idle_sleep:0.001 ~push_interval:0.0 ~socket ();
    write_stat stat
  | _ -> failwith "perfbench: bad --serve-role arguments"

let spawn args =
  let exe = Sys.executable_name in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close null)
    (fun () ->
      Unix.create_process exe (Array.of_list (exe :: "--serve-role" :: args)) null null
        Unix.stderr)

(* Wait for [pid] to exit, at most [grace] seconds, then kill it.  True
   when it exited on its own with status 0. *)
let reap ~grace pid =
  let deadline = Measure.now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Measure.now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        false
      end
      else begin
        Unix.sleepf 0.001;
        go ()
      end
    | _, status -> status = Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

type instance = {
  dir : string;
  daemon : int;
  worker : int;
  io : C.io;  (* the client's connection *)
}

(* Poll [f] until it yields a value; give up after ten seconds, so a
   daemon that never binds or a worker that never says hello is a failed
   sweep rather than a hang. *)
let poll ~what f =
  let deadline = Measure.now () +. 10.0 in
  let rec go () =
    match f () with
    | Some v -> v
    | None ->
      if Measure.now () > deadline then failwith ("serve: timed out waiting for " ^ what);
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

let connect socket =
  poll ~what:"the daemon's socket" (fun () ->
      match C.connect socket with io -> Some io | exception Unix.Unix_error _ -> None)

let await_worker io =
  poll ~what:"the worker's hello" (fun () ->
      match C.rpc io (P.Status None) with
      | P.Status_r { workers = _ :: _; _ } -> Some ()
      | _ -> None)

let stat_path dir role = Filename.concat dir (role ^ ".stat")

(* Set-up: the daemon process starts and binds its socket (seen as the
   first connect that succeeds), then the worker process starts and
   says hello (seen as a registered worker).  A failure on the way
   kills whatever was started. *)
let start dir =
  let socket = Filename.concat dir "s.sock" in
  let store_dir = Filename.concat dir "store" in
  let t0 = Measure.now () in
  let daemon = spawn [ "daemon"; socket; store_dir; stat_path dir "daemon" ] in
  let worker = ref None in
  match
    let io = connect socket in
    worker := Some (spawn [ "worker"; socket; stat_path dir "worker" ]);
    await_worker io;
    io
  with
  | io ->
    let worker = Option.get !worker in
    ({ dir; daemon; worker; io }, Measure.now () -. t0)
  | exception e ->
    List.iter (fun pid -> ignore (reap ~grace:0.0 pid)) (daemon :: Option.to_list !worker);
    raise e

(* Shut the daemon down (the worker then hears Quit or loses its
   connection), wait for both processes and read what they report.
   [None] when either failed to exit cleanly. *)
let stop inst =
  (match C.rpc inst.io P.Shutdown with
  | _ -> ()
  | exception (C.Disconnected | Unix.Unix_error _) -> ());
  C.close inst.io;
  let daemon_ok = reap ~grace:10.0 inst.daemon in
  let worker_ok = reap ~grace:10.0 inst.worker in
  if daemon_ok && worker_ok then
    Some (read_stat (stat_path inst.dir "daemon"), read_stat (stat_path inst.dir "worker"))
  else None

type frame = { at : float; p : P.progress }

type sweep = {
  output : string;
  sweep_s : float;  (* Submit sent to Results returned *)
  frames : frame list;  (* progress frames in arrival order, client timestamps *)
}

let run_sweep inst exps =
  Span.with_ "serve.sweep" (fun () ->
      let frames = ref [] in
      let t0 = Measure.now () in
      let job =
        Span.with_ "serve.submit" (fun () ->
            let submit = P.Submit { P.exps; scale = P.Quick; jobs = 1; retry = 0 } in
            match C.rpc inst.io submit with
            | P.Job_id j -> j
            | _ -> failwith "serve: unexpected submit reply")
      in
      Span.with_ "serve.wait" (fun () ->
          match
            C.wait_progress inst.io job ~on_progress:(fun p ->
                frames := { at = Measure.now (); p } :: !frames)
          with
          | P.Ok_unit -> ()
          | _ -> failwith "serve: unexpected wait reply");
      let output =
        Span.with_ "serve.results" (fun () ->
            match C.rpc inst.io (P.Results job) with
            | P.Results_r out -> out
            | _ -> failwith "serve: unexpected results reply")
      in
      { output; sweep_s = Measure.now () -. t0; frames = List.rev !frames })

(* One cold served sweep: fresh store, fresh daemon and worker.  Also
   returns the set-up time and the daemon's and worker's reports. *)
let cold exps =
  let dir = Measure.fresh_dir "serve" in
  let inst, setup_s = Span.with_ "serve.setup" (fun () -> start dir) in
  let sw =
    match run_sweep inst exps with
    | sw -> sw
    | exception e ->
      ignore (stop inst);
      raise e
  in
  let stats =
    match stop inst with
    | Some s -> s
    | None -> failwith "serve: the daemon or worker did not exit cleanly"
  in
  Measure.rm_rf dir;
  (setup_s, sw, stats)

let count phase sw = List.length (List.filter (fun f -> f.p.P.phase = phase) sw.frames)
let cells sw = count P.P_done sw + count P.P_failed sw + count P.P_hit sw

(* Compute time of each finished cell, as the worker reported it. *)
let cell_ms sw =
  List.filter_map
    (fun f -> if f.p.P.phase = P.P_done then Some (float_of_int f.p.P.pus /. 1000.0) else None)
    sw.frames

(* Client-seen gap between one cell's done frame and the next cell's
   claimed frame. *)
let dispatch_gaps_ms sw =
  let rec go last_done acc = function
    | [] -> List.rev acc
    | f :: rest -> (
      match (f.p.P.phase, last_done) with
      | P.P_done, _ -> go (Some f.at) acc rest
      | P.P_claimed, Some d -> go None (((f.at -. d) *. 1000.0) :: acc) rest
      | _ -> go last_done acc rest)
  in
  go None [] sw.frames
