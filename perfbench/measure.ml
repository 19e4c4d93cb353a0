(* Clocks, order statistics, process memory and GC deltas shared by every
   workload of the benchmark. *)

let now = Rn_util.Timing.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* How far traced root spans stray from the same work untraced.  The
   runs alternate in time, untraced first and last: [untraced] holds one
   more sample than [root], and root k ran between untraced k and k + 1.
   Each root is compared with the mean of its two neighbours, so a drift
   in the host's speed cancels to first order, and the result is
   |median of root / neighbours - 1|.  A traced run whose mismatch is
   above [mismatch_tolerance] (the largest end-to-end bound) counts as
   failed: its decomposition no longer describes the workload.  The
   signed figure is printed with the summary lines. *)
let mismatch_tolerance = 0.25

let mismatch ~root ~untraced =
  let u = Array.of_list untraced in
  let fracs = List.mapi (fun k r -> (r /. ((u.(k) +. u.(k + 1)) /. 2.0)) -. 1.0) root in
  let frac = Rn_util.Stats.median (Array.of_list fracs) in
  Printf.printf "trace root %s s, untraced %s s: %+.1f%%\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") root))
    (String.concat " " (List.map (Printf.sprintf "%.4f") untraced))
    (100.0 *. frac);
  Float.abs frac

(* Traced roots per traced run where the unit is short (an engine run or
   a served sweep). *)
let mismatch_pairs = 3

(* The highest order statistic that still has ten samples above it (the
   tail a sample count can support); with fewer than 21 samples that
   would sit below the median, so the maximum is reported instead. *)
let tail = function
  | [] -> invalid_arg "Measure.tail: no samples"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let k = Array.length a in
    if k >= 21 then a.(k - 11) else a.(k - 1)

(* --- peak resident memory ---

   VmHWM is the process's resident high-water mark.  Writing "5" to
   /proc/self/clear_refs resets it to the current RSS, so a workload's
   peak starts at its own set-up, after a compaction. *)

let reset_peak_rss () =
  Gc.compact ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"
      in
      scan ())

(* Repeat the measured unit [f] while another call still fits in
   [seconds] of wall time (at least once).  Returns the results in call
   order and the peak RSS in MB at the end of the first call: the peak
   over set-up and one unit, a fixed amount of work whatever the run
   length, since later calls only add allocator drift.  Each call starts
   from a compacted heap, so one call's garbage does not land in the next
   call's timing. *)
let units ~seconds f =
  let t0 = now () in
  let rec go acc peak =
    Gc.compact ();
    let acc = f () :: acc in
    let peak = match peak with Some p -> p | None -> peak_rss_mb () in
    let elapsed = now () -. t0 in
    let per_unit = elapsed /. float_of_int (List.length acc) in
    if elapsed +. per_unit > seconds then (List.rev acc, peak) else go acc (Some peak)
  in
  go [] None

(* --- GC activity over a measured section --- *)

type gc_delta = { minor : int; major : int; top_heap_mb : float }

let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.0 in
  ( r,
    {
      minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major = s1.Gc.major_collections - s0.Gc.major_collections;
      top_heap_mb = float_of_int s1.Gc.top_heap_words *. word_mb;
    } )

(* --- scratch directories inside the checkout --- *)

let work_root = "_perfbench"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh, empty directory under [work_root], unique within the run. *)
let fresh_dir =
  let k = ref 0 in
  fun tag ->
    incr k;
    let d =
      Filename.concat work_root (Printf.sprintf "%d/%s%d" (Unix.getpid ()) tag !k)
    in
    rm_rf d;
    mkdir_p d;
    d

let cleanup () = rm_rf (Filename.concat work_root (string_of_int (Unix.getpid ())))
