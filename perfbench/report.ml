(* One workload run's outcome and its two renderings: human-readable
   summary lines, and the one-line JSON result the last line of stdout
   carries. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  workload : string;
  attempted : int;  (* operations: table cells, or engine runs *)
  failed : int;  (* raised, Cell_failed, timed out, or output mismatch *)
  metrics : metric list;
  notes : (string * float * string) list;  (* printed, not part of the JSON *)
}

let m name unit_ value = { name; value; unit_ }

let error_rate t =
  if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted

let correct t = t.failed = 0 && t.attempted > 0

let print_summary t =
  let line name value unit_ =
    Printf.printf "%-22s %-36s %16.6g %s\n" t.workload name value unit_
  in
  List.iter (fun x -> line x.name x.value x.unit_) t.metrics;
  List.iter (fun (name, value, unit_) -> line name value unit_) t.notes;
  line "error_rate" (error_rate t) (Printf.sprintf "ratio (%d/%d)" t.failed t.attempted)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let metrics_json ?(prefix = "") metrics =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf {|"%s%s": {"value": %s, "unit": "%s"}|} prefix x.name
           (json_number x.value) x.unit_)
       metrics)

let result_json ~correct ~attempted ~failed metrics_body =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed metrics_body

let json t =
  result_json ~correct:(correct t) ~attempted:t.attempted ~failed:t.failed
    (metrics_json t.metrics)

(* Several workloads run in one process: metric names are prefixed with
   their workload. *)
let combined_json ts =
  result_json
    ~correct:(List.for_all correct ts)
    ~attempted:(List.fold_left (fun acc t -> acc + t.attempted) 0 ts)
    ~failed:(List.fold_left (fun acc t -> acc + t.failed) 0 ts)
    (String.concat ", "
       (List.map (fun t -> metrics_json ~prefix:(t.workload ^ ".") t.metrics) ts))
