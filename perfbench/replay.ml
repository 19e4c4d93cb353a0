(* The E1 and A1 cells replayed through their own public calls, with the
   cells' parameters: Harness.geometric -> Detector.perfect -> Core.*.run
   -> Verify.* -> Store.put.  This reaches the layers below Harness that
   a sweep hides, so the traced run can time each of them.  The cell
   definitions mirror lib/harness/exp_mis.ml (E1) and exp_ccds.ml (A1);
   [check_against] ties the replay back to the tables a real sweep
   renders. *)

module H = Rn_harness.Harness
module Store = Rn_util.Store
module Detector = Rn_detect.Detector
module Dual = Rn_graph.Dual
module Graph = Rn_graph.Graph
module Verify = Rn_verify.Verify
module R = Core.Radio

type algo = Mis | Ccds | Explore

type cell = {
  exp : string;
  coord : string;  (* the cell's store coordinate in its experiment's sweep *)
  version : int;
  n : int;
  degree : int;
  world_seed : int;
  rep : int;
  b_bits : int option;
  algo : algo;
}

(* E1: sizes x reps, one batch (see Exp_mis.e1). *)
let e1_cells =
  let sizes = [ 32; 64; 128; 256 ] and reps = H.reps H.Quick in
  List.concat_map (fun n -> List.init reps (fun i -> (n, i + 1))) sizes
  |> List.mapi (fun i (n, rep) ->
         {
           exp = "E1";
           coord = Printf.sprintf "b0.c%d" i;
           version = Rn_harness.Exp_mis.code_version;
           n;
           degree = Rn_harness.Exp_mis.degree_for n;
           world_seed = rep + (100 * n);
           rep;
           b_bits = None;
           algo = Mis;
         })

(* A1: degree x message size x algorithm x reps, one batch (see
   Exp_ccds.a1). *)
let a1_cells =
  let n = 96 in
  let id = Rn_util.Ilog.log2_up n in
  let keys =
    List.concat_map
      (fun d ->
        List.concat_map (fun b -> List.map (fun a -> (d, b, a)) [ Ccds; Explore ])
          [ Some (8 * id); None ])
      [ 8; 24 ]
  in
  let reps = H.reps H.Quick in
  List.concat_map (fun k -> List.init reps (fun i -> (k, i + 1))) keys
  |> List.mapi (fun i ((degree, b_bits, algo), rep) ->
         {
           exp = "A1";
           coord = Printf.sprintf "b0.c%d" i;
           version = Rn_harness.Exp_ccds.code_version;
           n;
           degree;
           world_seed = rep + 71;
           rep;
           b_bits;
           algo;
         })

let all_cells = e1_cells @ a1_cells

(* A small fixed subset, for workloads that bypass these layers: the
   E1 n=128 world and the two cheapest A1 cells. *)
let probe_cells =
  List.filter (fun c -> c.exp = "E1" && c.n = 128 && c.rep = 1) e1_cells
  @ List.filter (fun c -> c.degree = 8 && c.b_bits = None && c.rep = 1) a1_cells

type result = {
  cell : cell;
  rounds : int;
  edges : int;  (* reliable + gray edges of the cell's world *)
}

let span_name = function
  | Mis -> "core.mis.run"
  | Ccds -> "core.ccds.run"
  | Explore -> "core.explore.run"

let world c =
  Span.with_ "harness.geometric" (fun () ->
      H.geometric ~seed:c.world_seed ~n:c.n ~degree:c.degree ())

let replay_cell store c =
  Span.with_ "cell" (fun () ->
      let dual = world c in
      let det = Span.with_ "detector.perfect" (fun () -> Detector.perfect (Dual.g dual)) in
      let adversary = Rn_sim.Adversary.bernoulli 0.5 in
      let detector = Detector.static det in
      (* outcome types differ per algorithm; keep what the cells use *)
      let strip (r : _ R.result) = (r.R.rounds, r.R.outputs, r.R.decided_round) in
      let rounds, outputs, decided_round =
        Span.with_ (span_name c.algo) (fun () ->
            match c.algo with
            | Mis -> strip (Core.Mis.run ~seed:c.rep ~adversary ~detector dual)
            | Ccds ->
              strip (Core.Ccds.run ~seed:c.rep ?b_bits:c.b_bits ~adversary ~detector dual)
            | Explore ->
              strip
                (Core.Explore_ccds.run ~seed:c.rep ?b_bits:c.b_bits ~tau:0 ~adversary ~detector
                   dual))
      in
      let ok =
        match c.algo with
        | Mis ->
          Span.with_ "verify.mis_check" (fun () ->
              Verify.Mis_check.ok
                (Verify.Mis_check.check ~g:(Dual.g dual) ~h:(Detector.h_graph det)
                   outputs))
        | Ccds | Explore ->
          Span.with_ "verify.ccds_check" (fun () ->
              Verify.Ccds_check.ok
                (Verify.Ccds_check.check ~h:(Detector.h_graph det) ~g':(Dual.g' dual)
                   outputs))
      in
      let key =
        {
          Store.exp = c.exp;
          scale = H.scale_name H.Quick;
          coord = c.coord;
          code_version = c.version;
          env = H.cell_env;
        }
      in
      let payload =
        match c.algo with
        | Mis ->
          let last =
            Array.fold_left
              (fun acc d -> match d with Some r -> max acc r | None -> acc)
              0 decided_round
          in
          Marshal.to_string ((rounds, last, ok), Rn_util.Metrics.empty) []
        | Ccds | Explore -> Marshal.to_string ((rounds, ok), Rn_util.Metrics.empty) []
      in
      Span.with_ "store.put" (fun () -> Store.put store key Store.Done payload);
      {
        cell = c;
        rounds;
        edges = Graph.edge_count (Dual.g dual) + Dual.gray_count dual;
      })

(* Replay [cells] into a fresh store, under a root span "replay". *)
let run cells =
  let store = Store.open_ (Measure.fresh_dir "replay") in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () -> Span.with_ "replay" (fun () -> List.map (replay_cell store) cells))

(* The replay describes the sweep only if it computed the same cells:
   each table row's "rounds" column is the last repetition's rounds. *)
let table_rounds ~field_from_end output =
  let lines = String.split_on_char '\n' output in
  (* skip the "=== id ===" title and the two header lines; stop at notes *)
  let rec rows acc = function
    | [] -> List.rev acc
    | l :: rest ->
      let fields = List.filter (( <> ) "") (String.split_on_char ' ' l) in
      if l = "" || String.length l >= 2 && String.sub l 0 2 = "  " then List.rev acc
      else rows (List.nth fields (List.length fields - field_from_end) :: acc) rest
  in
  match lines with _title :: _header :: _rule :: rest -> rows [] rest | _ -> []

let last_rep_rounds exp results =
  let mine = List.filter (fun r -> r.cell.exp = exp) results in
  let reps = H.reps H.Quick in
  List.filteri (fun i _ -> (i + 1) mod reps = 0) mine
  |> List.map (fun r -> string_of_int r.rounds)

let check_against (sweep : Sweep.t) results =
  List.for_all
    (fun (e : Sweep.exp) ->
      match e.id with
      | "E1" -> table_rounds ~field_from_end:3 e.output = last_rep_rounds "E1" results
      | "A1" -> table_rounds ~field_from_end:2 e.output = last_rep_rounds "A1" results
      | _ -> true)
    sweep.exps
