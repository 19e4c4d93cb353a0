(* Direct table sweeps: the `rn_cli experiment` code path (registry
   lookup, result store, rendered tables) driven from the benchmark. *)

module H = Rn_harness.Harness
module Store = Rn_util.Store

type exp = {
  id : string;
  output : string;  (* the rendered table, as `rn_cli experiment` prints it *)
  cells : int;
  cell_failures : int;  (* cells that raised or timed out, or 1 if the experiment raised *)
  exp_s : float;
}

type t = {
  exps : exp list;
  sweep_s : float;  (* first experiment call to the last table rendered *)
  cell_s : float list;  (* compute time of every freshly computed cell *)
  hits : int;
  misses : int;
  journal_bytes : int;
}

let output t = String.concat "" (List.map (fun e -> e.output) t.exps)

let run_exp id =
  let h0, m0, f0 = H.store_counters () in
  let t0 = Measure.now () in
  let output, raised =
    match Rn_harness.All.find id with
    | None -> ("", true)
    | Some f -> (
      match Span.with_ ("experiment." ^ id) (fun () -> H.render (f H.Quick)) with
      | out -> (out, false)
      | exception H.Cell_failed _ -> ("", false)
      | exception _ -> ("", true))
  in
  let exp_s = Measure.now () -. t0 in
  let h1, m1, f1 = H.store_counters () in
  {
    id;
    output;
    cells = h1 - h0 + (m1 - m0) + (f1 - f0);
    cell_failures = f1 - f0 + if raised then 1 else 0;
    exp_s;
  }

(* Sweep [ids] at [Quick] scale against the store already opened at
   [store], with [jobs] cell domains (the CLI default is 1). *)
let run ?(jobs = 1) store ids =
  H.reset_store_counters ();
  H.reset_cell_times ();
  H.set_store store;
  H.set_jobs jobs;
  Fun.protect
    ~finally:(fun () ->
      H.clear_store ();
      H.set_jobs 1)
    (fun () ->
      let t0 = Measure.now () in
      let exps = List.map run_exp ids in
      let sweep_s = Measure.now () -. t0 in
      let hits, misses, _ = H.store_counters () in
      {
        exps;
        sweep_s;
        cell_s = List.map snd (H.slowest_cells ~k:max_int ());
        hits;
        misses;
        journal_bytes = (Unix.stat (Store.journal_path (Store.dir store))).Unix.st_size;
      })

(* Open the store at [dir], sweep [ids] against it, close it. *)
let in_dir ?jobs dir ids =
  let store = Store.open_ dir in
  Fun.protect ~finally:(fun () -> Store.close store) (fun () -> run ?jobs store ids)

(* A cold sweep: a fresh store directory. *)
let cold ?jobs ids = in_dir ?jobs (Measure.fresh_dir "store") ids

(* A cold sweep followed by a warm one over the same store, which
   replays every cell from the journal. *)
let cold_then_warm ids =
  let dir = Measure.fresh_dir "store" in
  let cold = in_dir dir ids in
  (cold, in_dir dir ids)

(* --- committed expected outputs ---

   perfbench/expected.txt holds one "<experiment id> <md5 hex>" line per
   table the workloads render.  The table workloads' inputs are fixed by
   the experiment registry, so these digests do not depend on --seed. *)

let expected_file = "perfbench/expected.txt"

let expected =
  lazy
    (let ic = open_in expected_file in
     Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () ->
         let rec go acc =
           match input_line ic with
           | line -> (
             match String.split_on_char ' ' (String.trim line) with
             | [ id; hex ] -> go ((id, hex) :: acc)
             | _ -> go acc)
           | exception End_of_file -> List.rev acc
         in
         go []))

let digest s = Digest.to_hex (Digest.string s)

(* Cells of [e] that count as failed: its own failures, or every cell
   when the rendered table differs from the committed digest. *)
let failed_cells e =
  let matches =
    match List.assoc_opt e.id (Lazy.force expected) with
    | Some hex -> hex = digest e.output
    | None -> false
  in
  if matches then e.cell_failures else max 1 e.cells
