(* Spans recorded around the benchmark's own calls into the program's
   public functions (the program itself is not instrumented).

   A span holds a name, start, end, parent and the id of the workload
   run it belongs to.  Spans stay in memory and are written out once, as
   Chrome-trace JSON, when the run ends.  Recording is single-domain:
   every span is opened and closed on the benchmark's main domain. *)

type t = {
  id : int;
  name : string;
  run : int;
  parent : int;  (* -1 for a root span *)
  start : float;
  stop : float;
}

let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let run_id = ref 0

let start_run () = incr run_id

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = Measure.now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Measure.now () in
        open_ids := List.tl !open_ids;
        recorded := { id; name; run = !run_id; parent; start; stop } :: !recorded)
      f
  end

(* Run [f] with recording switched off. *)
let off f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

let duration s = s.stop -. s.start
let spans () = List.rev !recorded

(* Spans opened at or after [mark] (a value of [!next_id]). *)
let since mark = List.filter (fun s -> s.id >= mark) (spans ())

let named name spans = List.filter (fun s -> s.name = name) spans
let total name spans = List.fold_left (fun acc s -> acc +. duration s) 0.0 (named name spans)

(* Self time: a span's duration minus the time its children cover.
   Children of one parent never overlap (one domain, strictly nested
   calls), so the covered time is the sum of their durations. *)
let self_times spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)))
    spans

(* Total and self seconds per span name, in first-seen order. *)
let by_name spans =
  let order = ref [] and tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some (k, tot, slf) ->
        Hashtbl.replace tbl s.name (k + 1, tot +. duration s, slf +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace tbl s.name (1, duration s, self))
    (self_times spans);
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome-trace JSON (the format [rn_cli trace] exports): one complete
   ("X") event per span, timestamps in microseconds from the first span,
   one trace process per workload run. *)
let to_chrome spans =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us x = (x -. t0) *. 1e6 in
  let events =
    List.map
      (fun (s, self) ->
        Printf.sprintf
          ({|{"name":%s,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":0,|}
          ^^ {|"args":{"id":%d,"parent":%d,"self_us":%.3f}}|})
          (json_string s.name) (us s.start) (duration s *. 1e6) s.run s.id s.parent
          (self *. 1e6))
      (self_times spans)
  in
  {|{"displayTimeUnit":"ms","traceEvents":[|} ^ "\n" ^ String.concat ",\n" events ^ "\n]}\n"

let write_chrome path spans =
  Measure.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_chrome spans))
