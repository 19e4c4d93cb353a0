(* Round adversaries for the dual graph model.

   Each round, after seeing who broadcasts, the adversary picks a reach set
   consisting of all reliable edges E plus an arbitrary subset of the gray
   edges E' \ E (Section 2).  A policy fills a bitset over gray-edge ids.

   The [spiteful] policy is the Section 7 simulation adversary: whenever two
   or more processes broadcast it activates every gray edge, colliding any
   message that would otherwise have crossed between weakly-connected parts;
   a solo broadcaster is left alone so its message travels only on E.

   Deterministic policies additionally carry an optional word-parallel
   KERNEL — a second implementation of exactly the same activation set
   that works by mask algebra instead of per-edge callbacks, mirroring
   the engine's delivery kernel:

   - [all_gray]/[spiteful] activate every gray edge incident to a
     broadcaster.  Dense gray ids follow ascending packed (u, v) order,
     so the ids whose lower endpoint is a given node form one contiguous
     range: the kernel ORs each broadcaster's row in as one
     [Bitset.fill_range] (word-parallel, ranges of distinct nodes
     disjoint) plus per-id visits of the scattered upper-endpoint side
     ([Dual.iter_gray_upper]) — each gray edge is visited at most once
     per side, where the scalar callback walk visits it from every
     broadcasting endpoint and pays a div/mod per visit.
   - [jamming] finds its victims — nodes about to hear exactly one
     reliable broadcaster — with the delivery kernel's once/twice
     saturating accumulator over the broadcasters' reliable neighbours,
     then reads them off word-parallel as once ∧ ¬twice ∧ ¬bcast instead
     of scanning all n nodes; the per-victim choice of one colliding
     gray edge is unchanged (same edge, same order).
   - [bernoulli]/[harassing] have NO kernel: their per-edge RNG draws
     are the semantics — any evaluation that reorders or batches the
     draws changes the stream — so they keep the scalar loop (made
     cheaper below: broadcaster membership is a per-round bitset, not a
     binary search per edge).

   A kernel must produce bit-for-bit the activation set of its scalar
   [choose] (certified by test_engine_equiv.ml), which is what lets
   the engine switch per round on a cost model. *)

module Bitset = Rn_util.Bitset
module Rng = Rn_util.Rng
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual

(* Preallocated scratch for the kernel path, one per engine run (built
   lazily on the first kernel round).  [sc_bcast] must be empty between
   rounds (policies restore it by removing what they added). *)
type scratch = {
  sc_bcast : Bitset.t; (* capacity n *)
  sc_once : Bitset.t; (* capacity n *)
  sc_twice : Bitset.t; (* capacity n *)
}

let make_scratch dual =
  let n = Dual.n dual in
  { sc_bcast = Bitset.create n; sc_once = Bitset.create n; sc_twice = Bitset.create n }

type choose_fn =
  round:int -> broadcasters:int array -> Dual.t -> Rng.t -> Bitset.t -> unit

type kernel = {
  k_choose :
    round:int -> broadcasters:int array -> Dual.t -> Rng.t -> scratch -> Bitset.t -> unit;
  k_wins : broadcasters:int array -> Dual.t -> bool;
      (* [`Auto] profitability: is the mask path expected to beat the
         scalar one on THIS round's broadcasters?  Must be O(#bcast). *)
}

type t = { name : string; choose : choose_fn; kernel : kernel option }

let name t = t.name

let choose t ~round ~broadcasters dual rng active =
  t.choose ~round ~broadcasters dual rng active

let has_kernel t = t.kernel <> None

let kernel_wins t ~broadcasters dual =
  match t.kernel with None -> false | Some k -> k.k_wins ~broadcasters dual

let choose_kernel t ~round ~broadcasters dual rng scratch active =
  match t.kernel with
  | Some k -> k.k_choose ~round ~broadcasters dual rng scratch active
  | None -> invalid_arg "Adversary.choose_kernel: policy has no kernel"

(* Only gray edges incident to a broadcaster can influence delivery — the
   engine reads the activation bitset exclusively through the broadcasters'
   gray adjacency — so policies below restrict themselves to those edges.
   For deterministic policies this is observably identical; for [bernoulli]
   it merely re-times which stream positions feed which edges (each
   relevant edge still gets one independent draw per round, from the
   round's derived stream). *)

let silent = { name = "silent"; choose = (fun ~round:_ ~broadcasters:_ _ _ _ -> ()); kernel = None }

(* Shared by [all_gray] and [spiteful]: activate every gray edge incident
   to a broadcaster, as one contiguous lower-range fill plus the
   scattered upper ids per broadcaster. *)
let or_rows_masks ~broadcasters dual active =
  for i = 0 to Array.length broadcasters - 1 do
    let u = Array.unsafe_get broadcasters i in
    let l0, l1 = Dual.gray_lower_range dual u in
    Bitset.fill_range active l0 l1;
    Dual.iter_gray_upper (fun id -> Bitset.add active id) dual u
  done

(* Mask path pays once per broadcaster (range fill) plus once per
   upper-side incidence; scalar pays the full incidence with a div/mod
   callback per visit.  Ask for a modest margin over the fixed per-round
   sweep overhead before switching. *)
let dense_enough ~broadcasters dual =
  let reach = ref 0 in
  Array.iter (fun u -> reach := !reach + Dual.gray_degree dual u) broadcasters;
  !reach > (8 * Array.length broadcasters) + 64

let all_gray =
  {
    name = "all-gray";
    choose =
      (fun ~round:_ ~broadcasters dual _ active ->
        Array.iter
          (fun u -> Dual.iter_gray_adj (fun _ e -> Bitset.add active e) dual u)
          broadcasters);
    kernel =
      Some
        {
          k_choose =
            (fun ~round:_ ~broadcasters dual _ _ active ->
              or_rows_masks ~broadcasters dual active);
          k_wins = dense_enough;
        };
  }

(* Each gray edge independently active with probability p, fresh each
   round.  One draw per distinct incident edge: the lowest-id broadcasting
   endpoint owns the draw.  NO kernel: the per-edge draw sequence is the
   semantics.  The broadcaster membership test is a per-round bitset
   (filled from the sorted broadcaster array, emptied again after the
   walk) instead of a per-edge binary search — same draws, same stream,
   cheaper by the O(log #bcast) factor on every gray edge.  The bitset
   lives in domain-local storage so one policy value stays safe to share
   across Pool domains running independent cells. *)
let bernoulli p =
  if p < 0.0 || p > 1.0 then invalid_arg "Adversary.bernoulli";
  let dls = Domain.DLS.new_key (fun () -> ref (Bitset.create 0)) in
  {
    name = Printf.sprintf "bernoulli(%.2f)" p;
    choose =
      (fun ~round:_ ~broadcasters dual rng active ->
        let n = Dual.n dual in
        let cell = Domain.DLS.get dls in
        if Bitset.capacity !cell <> n then cell := Bitset.create n;
        let bcast = !cell in
        Array.iter (fun u -> Bitset.add bcast u) broadcasters;
        Array.iter
          (fun u ->
            Dual.iter_gray_adj
              (fun v e ->
                if not (v < u && Bitset.mem bcast v) then
                  if Rng.bool rng p then Bitset.add active e)
              dual u)
          broadcasters;
        Array.iter (fun u -> Bitset.remove bcast u) broadcasters);
    kernel = None;
  }

(* Activate gray edges incident to broadcasters with probability p: a
   cheaper adaptive policy that concentrates unreliability where it can
   actually cause collisions.  NO kernel, like [bernoulli]. *)
let harassing p =
  if p < 0.0 || p > 1.0 then invalid_arg "Adversary.harassing";
  {
    name = Printf.sprintf "harassing(%.2f)" p;
    choose =
      (fun ~round:_ ~broadcasters dual rng active ->
        Array.iter
          (fun u ->
            Dual.iter_gray_adj
              (fun _ e -> if Rng.bool rng p then Bitset.add active e)
              dual u)
          broadcasters);
    kernel = None;
  }

(* Section 7 simulation adversary: collide everything whenever at least two
   processes broadcast, never interfere with a solo broadcaster. *)
let spiteful =
  {
    name = "spiteful";
    choose =
      (fun ~round:_ ~broadcasters dual _ active ->
        if Array.length broadcasters >= 2 then
          Array.iter
            (fun u -> Dual.iter_gray_adj (fun _ e -> Bitset.add active e) dual u)
            broadcasters);
    kernel =
      Some
        {
          k_choose =
            (fun ~round:_ ~broadcasters dual _ _ active ->
              if Array.length broadcasters >= 2 then or_rows_masks ~broadcasters dual active);
          k_wins =
            (fun ~broadcasters dual ->
              Array.length broadcasters >= 2 && dense_enough ~broadcasters dual);
        };
  }

(* Picks the gray edge the scalar jamming loop would: the first
   broadcasting gray neighbour of [v] in descending edge-id order. *)
let jam_victim ~bcast_mem dual active v =
  let jammed = ref false in
  Dual.iter_gray_adj
    (fun w e ->
      if (not !jammed) && bcast_mem w then begin
        Bitset.add active e;
        jammed := true
      end)
    dual v

(* The broadcast-hardness adversary of the dual graph line of work
   (references [10, 11] of the paper): wherever a node is about to hear a
   solo reliable broadcaster, activate a gray edge from *another*
   broadcaster to collide it.  It never helps — gray edges are only ever
   switched on to raise a receiver's broadcaster count past one.

   The scalar path threads preallocated per-domain scratch (broadcast
   flags + reliable-neighbour counts) through domain-local storage, so
   steady-state rounds allocate nothing: flags are cleared by removing
   the broadcasters again, counts by re-walking their neighbourhoods. *)
let jamming =
  let dls = Domain.DLS.new_key (fun () -> ref None) in
  {
    name = "jamming";
    choose =
      (fun ~round:_ ~broadcasters dual _ active ->
        let g = Dual.g dual in
        let n = Dual.n dual in
        let cell = Domain.DLS.get dls in
        let bcast, counts =
          match !cell with
          | Some ((b, _) as s) when Bytes.length b = n -> s
          | _ ->
            let s = (Bytes.make n '\000', Array.make n 0) in
            cell := Some s;
            s
        in
        Array.iter (fun u -> Bytes.unsafe_set bcast u '\001') broadcasters;
        Array.iter
          (fun u ->
            Graph.iter_neighbors
              (fun v -> Array.unsafe_set counts v (Array.unsafe_get counts v + 1))
              g u)
          broadcasters;
        for v = 0 to n - 1 do
          if Bytes.unsafe_get bcast v = '\000' && Array.unsafe_get counts v = 1 then
            (* one gray broadcaster suffices to collide v *)
            jam_victim ~bcast_mem:(fun w -> Bytes.unsafe_get bcast w = '\001') dual active v
        done;
        Array.iter
          (fun u -> Graph.iter_neighbors (fun v -> Array.unsafe_set counts v 0) g u)
          broadcasters;
        Array.iter (fun u -> Bytes.unsafe_set bcast u '\000') broadcasters);
    kernel =
      Some
        {
          k_choose =
            (fun ~round:_ ~broadcasters dual _ scratch active ->
              let g = Dual.g dual in
              let bcast = scratch.sc_bcast in
              let once = scratch.sc_once and twice = scratch.sc_twice in
              Bitset.clear once;
              Bitset.clear twice;
              Array.iter (fun u -> Bitset.add bcast u) broadcasters;
              Array.iter
                (fun u -> Graph.iter_neighbors (fun v -> Bitset.acc2_add ~once ~twice v) g u)
                broadcasters;
              (* victims = once ∧ ¬twice ∧ ¬bcast, read off word-parallel
                 in ascending order — the same order, and per victim the
                 same gray edge, as the scalar n-scan *)
              let bpw = Bitset.bits_per_word in
              for w = 0 to Bitset.word_count once - 1 do
                let word =
                  ref
                    (Bitset.get_word once w
                    land lnot (Bitset.get_word twice w)
                    land lnot (Bitset.get_word bcast w))
                in
                let base = w * bpw in
                while !word <> 0 do
                  let v = base + Bitset.lowest_bit !word in
                  word := !word land (!word - 1);
                  jam_victim ~bcast_mem:(fun u -> Bitset.mem bcast u) dual active v
                done
              done;
              Array.iter (fun u -> Bitset.remove bcast u) broadcasters);
          k_wins =
            (fun ~broadcasters:_ dual ->
              (* scalar cost is O(n) regardless of activity; the kernel
                 sweeps words instead, so it wins as soon as the scan is
                 more than a few words long *)
              Dual.n dual >= 4 * Bitset.bits_per_word);
        };
  }

let custom ~name choose = { name; choose; kernel = None }
