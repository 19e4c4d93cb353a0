(* The dual graph round engine (Section 2 semantics).

   Each process runs as an OCaml-5 effect fiber: algorithm code is written
   in direct style and performs [Sync send] once per round.  The engine
   gathers all send intents, lets the adversary pick the round's reach set
   (all of E plus an arbitrary subset of gray edges), computes receives
   under the collision rule — a node receives a message iff it did not
   broadcast and exactly one reachable neighbour broadcast; otherwise it
   gets silence, with no collision detection — and resumes every fiber with
   its receive.

   The round loop is organised so per-round cost scales with *activity*,
   not with n:

   - a live-fiber worklist holds exactly the fibers awaiting this round's
     receive, so send collection, receive computation and resumption touch
     only live ids;
   - wake rounds are pre-sorted into a round-ordered queue, so the wake
     phase is O(#wakers this round);
   - fibers that declare themselves inert for k rounds ([idle]) park in a
     min-heap keyed by resume round instead of being resumed k times;
     fibers that listen for up to k rounds ([listen]) park in the same
     heap and are woken early by the delivery phase — whichever path
     (scalar touches or dense kernel) computes the round — only when they
     receive, so listen-only rounds cost no continuation switch;
   - one effect handler serves every fiber of a run: effects carry the
     performing fiber's id, so no per-fiber closures are built;
   - the adversary RNG is re-derived per round from a root stream
     ([Rng.derive_into adv_root round]), so rounds with no broadcasters can
     skip the adversary/delivery phases — and stretches of rounds with no
     live fiber at all are fast-forwarded in one jump — without perturbing
     any later round's randomness;
   - delivery scratch (`recv_count`/`recv_from`/`touched`) and the
     broadcaster buffer are preallocated and reset via the touched list, so
     steady-state rounds allocate nothing but the sorted broadcaster
     snapshot handed to the adversary and observer.

   [run_reference] keeps the original straightforward O(n)-scans-per-round
   loop (modulo the per-round adversary derivation, which is part of the
   semantics now) as a differential-testing oracle: for any config and
   body, [run] and [run_reference] must produce identical results.

   The functor is parameterised by the message type so each algorithm gets
   a typed payload; [size_bits] lets the engine enforce the model's bound b
   on message size in bits. *)

module Bitset = Rn_util.Bitset
module Pool = Rn_util.Pool
module Rng = Rn_util.Rng
module Timing = Rn_util.Timing
module Metrics = Rn_util.Metrics
module Graph = Rn_graph.Graph
module Dual = Rn_graph.Dual
module Detector = Rn_detect.Detector

(* Engine-level metrics, recorded at the end of each [run] when the
   registry is enabled ([Metrics.enabled] is sampled once per run, like
   [Timing.enabled], so a disabled registry costs one atomic read per
   simulation).  Registration is idempotent, so these module-level
   handles are shared by every [Make] instantiation. *)
let m_runs = Metrics.counter "engine.runs"
let m_rounds = Metrics.counter "engine.rounds"
let m_sends = Metrics.counter "engine.sends"
let m_deliveries = Metrics.counter "engine.deliveries"
let m_collisions = Metrics.counter "engine.collisions"
let m_bits_sent = Metrics.counter "engine.bits_sent"
let m_silent_rounds = Metrics.counter "engine.silent_rounds"
let m_adv_kernel_rounds = Metrics.counter "engine.adv_kernel_rounds"

(* Resume-shard counters are recorded on the *calling* domain after the
   merge (the per-shard buffers carry the raw counts home): [Metrics.scoped]
   snapshots see only the calling domain's records, so counting on the
   worker domains would leak the events out of per-cell snapshots even
   though the global atomics themselves merge commutatively. *)
let m_resume_sharded_rounds = Metrics.counter "engine.resume_sharded_rounds"
let m_resume_sharded_steps = Metrics.counter "engine.resume_sharded_steps"
let m_timeouts = Metrics.counter "engine.timeouts"

(* Continuations resumed (synced, woken-listener and due-parked steps;
   the first run of a fresh fiber is not a resume), and parked listeners
   woken early by a reception.  Accumulated on the main domain and
   recorded once per run: resume time over [fiber_steps] is the switch
   cost per step. *)
let m_fiber_steps = Metrics.counter "engine.fiber_steps"
let m_listen_wakes = Metrics.counter "engine.listen_wakes"
let m_round_bcast = Metrics.histogram "engine.round_broadcasters"
let m_run_rounds = Metrics.histogram "engine.run_rounds"

module type MESSAGE = sig
  type t

  (* Size of the encoded message in bits, given the network size (ids cost
     ceil(log2 n) bits). *)
  val size_bits : n:int -> t -> int

  val pp : Format.formatter -> t -> unit
end

type stop_condition =
  | All_done (* every fiber returned *)
  | All_decided (* every process produced an output *)
  | At_round of int (* run exactly this many rounds *)

type stats = {
  rounds : int;
  sends : int;
  deliveries : int;
  collisions : int; (* receiver-side: >= 2 reachable broadcasters *)
  bits_sent : int;
  silent_rounds : int; (* rounds with zero broadcasters (fast-forwardable) *)
}

(* Bump whenever the observable round semantics change (delivery rule,
   adversary derivation, RNG streams, ...): cached experiment cells are
   keyed on [semantics_digest], so a bump invalidates every stored
   result computed under the old semantics.  Version 3 is the PR 2
   activity-scaled loop with per-round adversary RNG derivation. *)
let semantics_version = 3
let semantics_digest = Printf.sprintf "eng%d" semantics_version

(* A round's resume phase shards only when at least this many fibers
   await their receive: below it, the Pool dispatch and merge cost more
   than stepping the fibers on one domain. *)
let resume_auto_threshold = 1024

(* Heap key of a stretch of [dur >= 1] rounds starting at round [base]:
   its last round, saturated at [max_int] (a key that never comes due)
   instead of wrapping negative for very long stretches. *)
let park_key base dur = if dur > max_int - base then max_int else base + dur - 1

(* Private per-shard collection buffers for the sharded resume phase: a
   stepped fiber contributes at most one join *or* one parking, plus
   at most one first decision and one finish, so slice-sized arrays never
   overflow.  Buffers hold only ints — the merge is blits, pushes, and
   counter adds on the main domain, in ascending shard order. *)
type resume_buf = {
  rb_join : int array; (* fibers that performed Sync, in step order *)
  mutable rb_join_n : int;
  rb_idle_r : int array; (* heap keys of fibers that performed Idle/Listen *)
  rb_idle_v : int array;
  mutable rb_idle_n : int;
  mutable rb_finished : int; (* fibers whose body returned *)
  mutable rb_decided : int; (* first-time outputs *)
}

module Make (M : MESSAGE) = struct
  type receive = Own | Silence | Recv of M.t

  (* Every payload carries the performing fiber's id, so one handler
     serves the whole run. *)
  type _ Effect.t +=
    | Sync : int * M.t option -> receive Effect.t
    | Idle : int * int -> unit Effect.t
    | Listen : int * int -> (int * M.t) option Effect.t

  type view = {
    view_round : int;
    view_broadcasters : int array; (* who sent this round (read-only) *)
    view_outputs : int option array; (* read-only *)
    view_decided : int option array; (* read-only *)
  }

  type config = {
    dual : Dual.t;
    detector : Detector.dynamic;
    adversary : Adversary.t;
    seed : int;
    b_bits : int option;
    delta_bound : int;
    wake : int array option; (* global wake round per node; default all 1 *)
    stop : stop_condition;
    max_rounds : int;
    observer : (view -> unit) option;
    sink : Events.sink option; (* structured event trace destination *)
    kernel : [ `Auto | `On | `Off ];
        (* dense-round delivery kernel: `Auto picks per round on a cost
           model, `On forces it whenever legal, `Off never uses it.  A
           sink always forces the scalar path (the kernel cannot emit
           per-receiver events); results are identical either way. *)
    adv_kernel : [ `Auto | `On | `Off ];
        (* word-parallel adversary kernel (mask algebra for the
           deterministic policies): `Auto switches per round on the
           policy's own cost model, `On forces it whenever the policy
           has one, `Off never uses it.  A sink forces the scalar path,
           like [kernel].  Results are byte-identical at any setting
           (certified by test_adversary_kernel). *)
    resume_shards : int;
        (* resume-phase sharding: with [resume_shards > 1] (and no sink),
           each round whose synced plus woken-listener count clears
           [resume_auto_threshold] cuts its work list — the synced fibers
           in worklist order, the woken listeners, then the parked fibers
           due this round in heap-pop order — into contiguous slices
           stepped in parallel on Pool domains.  Each shard collects its
           joins / parkings / finish and decide counts into a private
           buffer; the main domain merges the buffers in ascending shard
           order.  Pure evaluation strategy — results are byte-identical
           at any shard count (test_resume_shard).  A sink forces the
           scalar path (the scalar step emits Decide events in step
           order). *)
  }

  (* [?shards] is accepted and ignored: delivery and the adversary run on
     the calling domain.  The label stays only because the benchmark
     harness (perfbench/strategy.ml, perfbench/beacon.ml) still passes it. *)
  let config ?(adversary = Adversary.silent) ?(seed = 0) ?b_bits ?(delta_bound = 0)
      ?wake ?(stop = All_done) ?(max_rounds = 2_000_000) ?observer ?sink
      ?(kernel = `Auto) ?shards:(_ : int option) ?(adv_kernel = `Auto) ?(resume_shards = 1)
      ~detector dual =
    if resume_shards < 1 then invalid_arg "Engine.config: resume_shards < 1";
    (* No explicit sink: fall back to the process-wide ambient sink (the
       trace-on-demand hook).  Resolved here, once per config, so every
       consumer of [cfg.sink] sees the same decision. *)
    let sink = match sink with Some _ -> sink | None -> Events.ambient () in
    let delta_bound =
      if delta_bound > 0 then delta_bound else Dual.max_degree_g dual
    in
    {
      dual;
      detector;
      adversary;
      seed;
      b_bits;
      delta_bound;
      wake;
      stop;
      max_rounds;
      observer;
      sink;
      kernel;
      adv_kernel;
      resume_shards;
    }

  type ctx = {
    me : int;
    n : int;
    delta_bound : int;
    b_bits : int option;
    rng : Rng.t;
    mutable local_round : int; (* completed syncs *)
    current_detector : unit -> Detector.t;
    do_output : int -> unit;
  }

  let me ctx = ctx.me
  let n ctx = ctx.n
  let delta_bound ctx = ctx.delta_bound
  let b_bits ctx = ctx.b_bits
  let rng ctx = ctx.rng
  let round ctx = ctx.local_round
  let detector ctx = Detector.set (ctx.current_detector ()) ctx.me
  let detector_mem ctx v = Bitset.mem (detector ctx) v
  let output ctx v = ctx.do_output v

  let sync ctx send =
    let r = Effect.perform (Sync (ctx.me, send)) in
    ctx.local_round <- ctx.local_round + 1;
    r

  (* Listen for [k] rounds, discarding receives.  A single [Idle] perform
     lets the engine park the fiber for the whole stretch instead of
     resuming it k times; semantically identical to k silent syncs. *)
  let idle ctx k =
    if k > 0 then begin
      Effect.perform (Idle (ctx.me, k));
      ctx.local_round <- ctx.local_round + k
    end

  (* Up to [upto] silent syncs that stop after the first [Recv], as one
     effect: the fiber parks until it receives or the stretch ends. *)
  let listen ctx ~upto =
    if upto <= 0 then None
    else begin
      let r = Effect.perform (Listen (ctx.me, upto)) in
      (ctx.local_round <-
         ctx.local_round + match r with Some (j, _) -> j | None -> upto);
      r
    end

  (* Broadcast with probability [p], otherwise listen. *)
  let sync_p ctx p send = if Rng.bool ctx.rng p then sync ctx (Some send) else sync ctx None

  type 'a result = {
    outputs : int option array;
    returns : 'a option array;
    rounds : int;
    decided_round : int option array;
    stats : stats;
    timed_out : bool;
  }

  type fiber_status = Asleep | Running | Finished

  (* A fiber between resumptions: waiting on this round's receive, parked
     by [idle] or [listen], or absent (asleep / finished). *)
  type fiber_pending =
    | No_fiber
    | Synced of (receive, unit) Effect.Deep.continuation
    | Idling of (unit, unit) Effect.Deep.continuation
    | Listening of ((int * M.t) option, unit) Effect.Deep.continuation

  let no_broadcasters : int array = [||]

  (* Memoise a dynamic detector once it has stabilised (static detectors
     stabilise at round 0), so the common query path is one load instead of
     a closure call per query. *)
  let detector_query dyn round_counter =
    match Detector.stabilizes_at dyn with
    | None -> fun () -> Detector.at dyn !round_counter
    | Some s ->
      let cache = ref None in
      fun () ->
        (match !cache with
        | Some d -> d
        | None ->
          let d = Detector.at dyn !round_counter in
          if !round_counter >= s then cache := Some d;
          d)

  let validate_wake wake =
    Array.iteri
      (fun v w -> if w < 1 then invalid_arg (Printf.sprintf "Engine.run: wake.(%d) < 1" v))
      wake

  let run cfg body =
    let dual = cfg.dual in
    let nn = Dual.n dual in
    let root_rng = Rng.create cfg.seed in
    let adv_root = Rng.derive root_rng 0x5EED in
    let adv_rng = Rng.create 0 (* re-derived from [adv_root] every round *) in
    let wake = match cfg.wake with Some w -> Array.copy w | None -> Array.make nn 1 in
    validate_wake wake;
    let outputs = Array.make nn None in
    let decided = Array.make nn None in
    let returns = Array.make nn None in
    let sends = Array.make nn None in
    let pending = Array.make nn No_fiber in
    let round_counter = ref 0 in
    let sends_total = ref 0 and deliveries = ref 0 and collisions = ref 0 in
    let bits_sent = ref 0 and silent_rounds = ref 0 in
    let n_finished = ref 0 and n_decided = ref 0 in
    let current_detector = detector_query cfg.detector round_counter in
    (* Event tracing: sampled once per run.  [emit] only ever appends to
       the sink's ring buffer — it reads no RNG and mutates no engine
       state, so a traced run is byte-identical to an untraced one. *)
    let tracing, emit =
      match cfg.sink with
      | Some s -> (true, fun e -> Events.emit s e)
      | None -> (false, fun (_ : Events.event) -> ())
    in
    let met = Metrics.enabled () in
    (* Resume-phase sharding.  [resume_assign.(v)] routes fiber [v]'s next
       effect: -1 (the default, and always outside a sharded resume) means
       the handler mutates the global worklist/heap/counters directly; a
       shard index means it appends to that shard's private buffer.
       Assignments are set by the main domain before the Pool dispatch and
       cleared after the merge, so the wake phase and the scalar path never
       see one.  A sink forces the scalar step (Decide events must come out
       in step order), like the delivery and adversary kernels. *)
    let resume_shards = if tracing then 1 else cfg.resume_shards in
    let resume_assign = Array.make (max 1 nn) (-1) in
    let resume_bufs : resume_buf array ref = ref [||] in
    let mk_ctx v =
      {
        me = v;
        n = nn;
        delta_bound = cfg.delta_bound;
        b_bits = cfg.b_bits;
        rng = Rng.derive root_rng (v + 1);
        local_round = 0;
        current_detector;
        do_output =
          (fun value ->
            match outputs.(v) with
            | Some old when old <> value ->
              invalid_arg
                (Printf.sprintf "Engine: process %d re-output %d after %d" v value old)
            | Some _ -> ()
            | None ->
              outputs.(v) <- Some value;
              decided.(v) <- Some !round_counter;
              (let s = resume_assign.(v) in
               if s < 0 then incr n_decided
               else begin
                 let b = (!resume_bufs).(s) in
                 b.rb_decided <- b.rb_decided + 1
               end);
              if tracing then
                emit { Events.round = !round_counter; proc = v; kind = Decide { value } });
      }
    in
    (* Live worklist: [active.(0 .. n_active-1)] are the fibers holding a
       [Synced] continuation for the current round.  [joining] collects the
       fibers that perform [Sync] during a start/resume phase. *)
    let active = Array.make (max 1 nn) 0 in
    let n_active = ref 0 in
    let joining = Array.make (max 1 nn) 0 in
    let n_joining = ref 0 in
    (* Parked fibers (idlers and listeners), min-heap keyed by the last
       round of their stretch.  At most one entry per fiber; [heap_pos]
       indexes it, so a listener woken by a reception leaves in
       O(log n). *)
    let heap_r = Array.make (max 1 nn) 0 in
    let heap_v = Array.make (max 1 nn) 0 in
    let heap_pos = Array.make (max 1 nn) (-1) in
    let heap_n = ref 0 in
    let heap_set i r v =
      heap_r.(i) <- r;
      heap_v.(i) <- v;
      heap_pos.(v) <- i
    in
    let heap_swap i j =
      let tr = heap_r.(i) and tv = heap_v.(i) in
      heap_set i heap_r.(j) heap_v.(j);
      heap_set j tr tv
    in
    let rec sift_up i =
      let p = (i - 1) / 2 in
      if i > 0 && heap_r.(p) > heap_r.(i) then begin
        heap_swap p i;
        sift_up p
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let s = if l < !heap_n && heap_r.(l) < heap_r.(i) then l else i in
      let s = if r < !heap_n && heap_r.(r) < heap_r.(s) then r else s in
      if s <> i then begin
        heap_swap i s;
        sift_down s
      end
    in
    let heap_push r v =
      heap_set !heap_n r v;
      incr heap_n;
      sift_up (!heap_n - 1)
    in
    let heap_min () = if !heap_n = 0 then max_int else heap_r.(0) in
    let heap_remove_at i =
      let v = heap_v.(i) in
      heap_pos.(v) <- -1;
      decr heap_n;
      if i < !heap_n then begin
        heap_set i heap_r.(!heap_n) heap_v.(!heap_n);
        sift_down i;
        sift_up i
      end;
      v
    in
    let heap_pop () = heap_remove_at 0 in
    (* Wake queue: node ids sorted by (wake round, id); [wake_ptr] advances
       monotonically, so the wake phase costs O(#wakers this round). *)
    let wake_order = Array.init nn (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = compare wake.(a) wake.(b) in
        if c <> 0 then c else compare a b)
      wake_order;
    let wake_ptr = ref 0 in
    let next_wake () = if !wake_ptr >= nn then max_int else wake.(wake_order.(!wake_ptr)) in
    (* The round a fresh [Idle k] / [Listen k] starts counting from: the
       current round during the wake phase, the next round during the
       resume phase.  [listen_from.(v)] keeps it for a parked listener,
       which is woken with its offset into the stretch. *)
    let idle_base = ref 0 in
    let listen_from = Array.make (max 1 nn) 0 in
    (* Parked listeners that received this round, in delivery order. *)
    let woken = Array.make (max 1 nn) 0 in
    let n_woken = ref 0 in
    (* One handler for the whole run: effects carry the fiber id.  During
       a sharded resume it executes on whichever Pool domain stepped the
       fiber; [resume_assign.(v)] routes its side effects into that
       shard's private buffer.  [idle_base] and [round_counter] are only
       read during a resume phase and only written by the main domain
       between phases, so the reads are stable. *)
    let park v dur =
      let key = park_key !idle_base dur in
      let s = resume_assign.(v) in
      if s < 0 then heap_push key v
      else begin
        let b = (!resume_bufs).(s) in
        b.rb_idle_r.(b.rb_idle_n) <- key;
        b.rb_idle_v.(b.rb_idle_n) <- v;
        b.rb_idle_n <- b.rb_idle_n + 1
      end
    in
    let handler : (int, unit) Effect.Deep.handler =
      {
        retc =
          (fun v ->
            let s = resume_assign.(v) in
            if s < 0 then incr n_finished
            else begin
              let b = (!resume_bufs).(s) in
              b.rb_finished <- b.rb_finished + 1
            end);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sync (v, send) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  sends.(v) <- send;
                  pending.(v) <- Synced k;
                  let s = resume_assign.(v) in
                  if s < 0 then begin
                    joining.(!n_joining) <- v;
                    incr n_joining
                  end
                  else begin
                    let b = (!resume_bufs).(s) in
                    b.rb_join.(b.rb_join_n) <- v;
                    b.rb_join_n <- b.rb_join_n + 1
                  end)
            | Idle (v, dur) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  pending.(v) <- Idling k;
                  park v dur)
            | Listen (v, dur) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  pending.(v) <- Listening k;
                  listen_from.(v) <- !idle_base;
                  park v dur)
            | _ -> None);
      }
    in
    let start v =
      let ctx = mk_ctx v in
      Effect.Deep.match_with
        (fun () ->
          returns.(v) <- Some (body ctx);
          v)
        () handler
    in
    (* Delivery scratch, reset via the touched list each round.  A unique
       broadcaster is remembered by id ([recv_from]) rather than by boxing
       its message. *)
    let recv_count = Array.make nn 0 in
    let recv_from = Array.make nn (-1) in
    let touched = Array.make (max 1 nn) 0 in
    let n_touched = ref 0 in
    let touch u v =
      if recv_count.(v) = 0 then begin
        touched.(!n_touched) <- v;
        incr n_touched;
        recv_from.(v) <- u
      end;
      recv_count.(v) <- recv_count.(v) + 1
    in
    let bcast = Array.make (max 1 nn) 0 in
    let n_bcast = ref 0 in
    let gray_active = Bitset.create (max 1 (Dual.gray_count dual)) in
    (* Word-parallel delivery kernel scratch.  On a dense round the
       once/twice saturating accumulators classify every node at once —
       receives = once ∧ ¬twice ∧ listeners, collisions = twice ∧
       listeners — instead of per-edge touches.  A few words per 63
       nodes each, cheap enough to preallocate unconditionally. *)
    let k_once = Bitset.create nn in
    let k_twice = Bitset.create nn in
    let k_sync = Bitset.create nn in
    let k_idle = Bitset.create nn in
    let k_listen = Bitset.create nn in
    let k_recv = Bitset.create nn in
    let k_words = Bitset.word_count k_once in
    (* Domain pool for the sharded resume phase, created on its first
       sharded round and shut down when the run ends. *)
    let pool = ref None in
    let get_pool () =
      match !pool with
      | Some p -> p
      | None ->
        let p = Pool.create ~jobs:resume_shards in
        pool := Some p;
        p
    in
    (* Sharded-resume scratch, built on the first sharded round: the work
       list (synced fibers then due idlers) and one buffer per shard,
       slice-sized — a stepped fiber appends at most one join or one
       idle-parking. *)
    let resume_work =
      if resume_shards > 1 then Array.make (max 1 nn) 0 else no_broadcasters
    in
    let get_resume_bufs () =
      if Array.length !resume_bufs = 0 then begin
        let cap = (nn / resume_shards) + 1 in
        resume_bufs :=
          Array.init resume_shards (fun _ ->
              {
                rb_join = Array.make cap 0;
                rb_join_n = 0;
                rb_idle_r = Array.make cap 0;
                rb_idle_v = Array.make cap 0;
                rb_idle_n = 0;
                rb_finished = 0;
                rb_decided = 0;
              })
      end;
      !resume_bufs
    in
    (* Adversary kernel scratch, built on the first kernel round (never
       for policies without a kernel or under [`Off]). *)
    let adv_scratch = ref None in
    let get_adv_scratch () =
      match !adv_scratch with
      | Some s -> s
      | None ->
        let s = Adversary.make_scratch dual in
        adv_scratch := Some s;
        s
    in
    (* The dense kernel's classify step: once the round's (once, twice)
       pair sits in [k_once]/[k_twice], classify every node
       word-parallel — receives = once ∧ ¬twice ∧ listeners, collisions =
       twice ∧ listeners — update the counters, leave the receivers that
       take the payload (synced fibers and parked listeners) in [k_recv],
       queue the parked listeners among them in [woken], and report
       whether there are any receivers. *)
    let kernel_classify () =
      Bitset.clear k_sync;
      Bitset.clear k_idle;
      Bitset.clear k_listen;
      for i = 0 to !n_active - 1 do
        let v = active.(i) in
        if sends.(v) = None then Bitset.add k_sync v
      done;
      for i = 0 to !heap_n - 1 do
        let v = heap_v.(i) in
        match pending.(v) with
        | Listening _ -> Bitset.add k_listen v
        | _ -> Bitset.add k_idle v
      done;
      let any_recv = ref false and any_wake = ref false in
      for w = 0 to k_words - 1 do
        let once = Bitset.get_word k_once w in
        let twice = Bitset.get_word k_twice w in
        let takes = Bitset.get_word k_sync w lor Bitset.get_word k_listen w in
        let listen = takes lor Bitset.get_word k_idle w in
        let recv = once land lnot twice in
        deliveries := !deliveries + Bitset.popcount_word (recv land listen);
        collisions := !collisions + Bitset.popcount_word (twice land listen);
        let rs = recv land takes in
        if rs <> 0 then begin
          any_recv := true;
          if rs land Bitset.get_word k_listen w <> 0 then any_wake := true
        end;
        Bitset.set_word k_recv w rs
      done;
      if !any_wake then
        Bitset.iter_inter
          (fun v ->
            woken.(!n_woken) <- v;
            incr n_woken)
          k_recv k_listen;
      !any_recv
    in
    (* Receive buffer; all-[Silence] between rounds (entries are reset as
       they are consumed by the resume phase). *)
    let receives = Array.make nn Silence in
    (* Resume fiber [v] at the end of round [r]: a synced fiber with its
       receive, a woken listener with its offset into the stretch and the
       message, a parked fiber whose stretch ended with [()] / [None]. *)
    let step r v =
      match pending.(v) with
      | Synced k ->
        let recv = receives.(v) in
        receives.(v) <- Silence;
        sends.(v) <- None;
        pending.(v) <- No_fiber;
        Effect.Deep.continue k recv
      | Idling k ->
        pending.(v) <- No_fiber;
        Effect.Deep.continue k ()
      | Listening k -> (
        pending.(v) <- No_fiber;
        match receives.(v) with
        | Recv m ->
          receives.(v) <- Silence;
          Effect.Deep.continue k (Some (r - listen_from.(v) + 1, m))
        | Own | Silence -> Effect.Deep.continue k None)
      | No_fiber -> assert false
    in
    let g = Dual.g dual in
    (* The message of a broadcaster. *)
    let sent u = match sends.(u) with Some m -> m | None -> assert false in
    (* Returns the encoded size so the broadcast event can carry it. *)
    let validate_send v =
      incr sends_total;
      let m = sent v in
      let sz = M.size_bits ~n:nn m in
      bits_sent := !bits_sent + sz;
      (match cfg.b_bits with
      | Some b when sz > b ->
        invalid_arg
          (Format.asprintf "Engine: process %d sent %d bits > b=%d in round %d: %a" v sz b
             !round_counter M.pp m)
      | _ -> ());
      sz
    in
    let stop_now () =
      match cfg.stop with
      | All_done -> !n_finished = nn
      | All_decided -> !n_decided = nn || !n_finished = nn
      | At_round r -> !round_counter >= r
    in
    let timed_out = ref false in
    let fiber_steps = ref 0 and listen_wakes = ref 0 in
    let prof = Timing.enabled () in
    let ff_skipped = ref 0 in
    let t_mark = ref 0.0 in
    let p_start () = if prof then t_mark := Timing.now () in
    let p_stop sec = if prof then Timing.record sec (Timing.now () -. !t_mark) in
    Fun.protect
      ~finally:(fun () -> match !pool with Some p -> Pool.shutdown p | None -> ())
      (fun () ->
    try
       while not (stop_now ()) do
         (* Fast-forward: with no fiber awaiting a receive and no observer,
            every round before the next wake or idle expiry is a no-op —
            nothing broadcasts, nothing listens, and the per-round adversary
            derivation guarantees the skipped draws cannot influence later
            rounds.  Jump there in one step. *)
         if !n_active = 0 && cfg.observer = None then begin
           let next_event = min (next_wake ()) (heap_min ()) in
           let cap =
             match cfg.stop with
             | At_round tgt -> min tgt cfg.max_rounds
             | All_done | All_decided -> cfg.max_rounds
           in
           let target = min (next_event - 1) cap in
           if target > !round_counter then begin
             let skipped = target - !round_counter in
             silent_rounds := !silent_rounds + skipped;
             ff_skipped := !ff_skipped + skipped;
             round_counter := target;
             if tracing then
               emit { Events.round = target; proc = -1; kind = Skip { rounds = skipped } }
           end
         end;
         if not (stop_now ()) then begin
           if !round_counter >= cfg.max_rounds then begin
             timed_out := true;
             raise Exit
           end;
           incr round_counter;
           let r = !round_counter in
           (* 1. Wake processes scheduled for this round; they run to their
              first sync/idle and thereby register this round's intent. *)
           p_start ();
           idle_base := r;
           n_joining := 0;
           while !wake_ptr < nn && wake.(wake_order.(!wake_ptr)) = r do
             let v = wake_order.(!wake_ptr) in
             incr wake_ptr;
             if tracing then emit { Events.round = r; proc = v; kind = Wake };
             start v
           done;
           if !n_joining > 0 then begin
             Array.blit joining 0 active !n_active !n_joining;
             n_active := !n_active + !n_joining
           end;
           p_stop Timing.Wake;
           (* 2. Collect broadcasters (live fibers only) and enforce the
              message-size bound. *)
           p_start ();
           n_bcast := 0;
           for i = 0 to !n_active - 1 do
             let v = active.(i) in
             if sends.(v) <> None then begin
               bcast.(!n_bcast) <- v;
               incr n_bcast
             end
           done;
           let broadcasters =
             if !n_bcast = 0 then no_broadcasters
             else begin
               let a = Array.sub bcast 0 !n_bcast in
               Array.sort (compare : int -> int -> int) a;
               a
             end
           in
           Array.iter
             (fun v ->
               let sz = validate_send v in
               if tracing then emit { Events.round = r; proc = v; kind = Broadcast { bits = sz } })
             broadcasters;
           if met then Metrics.observe m_round_bcast !n_bcast;
           p_stop Timing.Collect;
           if !n_bcast = 0 then incr silent_rounds
           else begin
             (* 3. Adversary picks the gray edges that behave reliably,
                from a stream derived fresh for this round. *)
             p_start ();
             Bitset.clear gray_active;
             Rng.derive_into adv_rng ~parent:adv_root r;
             (* Deterministic policies carry a word-parallel kernel that
                fills [gray_active] by mask algebra; it is certified
                byte-identical to the scalar [choose], so switching per
                round on the policy's cost model is a pure evaluation
                strategy.  Tracing forces scalar, like delivery. *)
             let use_adv_kernel =
               (not tracing)
               &&
               match cfg.adv_kernel with
               | `Off -> false
               | `On -> Adversary.has_kernel cfg.adversary
               | `Auto -> Adversary.kernel_wins cfg.adversary ~broadcasters dual
             in
             if use_adv_kernel then begin
               if met then Metrics.incr m_adv_kernel_rounds;
               Adversary.choose_kernel cfg.adversary ~round:r ~broadcasters dual adv_rng
                 (get_adv_scratch ()) gray_active
             end
             else
               Adversary.choose cfg.adversary ~round:r ~broadcasters dual adv_rng gray_active;
             if tracing then
               emit
                 {
                   Events.round = r;
                   proc = -1;
                   kind =
                     Gray
                       {
                         active = Bitset.cardinal gray_active;
                         total = Dual.gray_count dual;
                       };
                 };
             p_stop Timing.Adversary;
             (* 4. Deliveries along E plus activated gray edges: scalar
                per-edge touches on sparse rounds, the word-parallel
                kernel on dense ones.  The kernel is only a faster
                evaluation of the same collision rule — counts and
                receives are identical by construction (certified by
                test_engine_equiv) — but it cannot emit per-receiver
                events, so a sink forces the scalar path. *)
             p_start ();
             let use_kernel =
               (not tracing)
               &&
               match cfg.kernel with
               | `Off -> false
               | `On -> true
               | `Auto ->
                 (* scalar cost ~ total broadcaster reach; kernel cost ~
                    two word-sweeps per broadcaster plus rebuilding the
                    listener masks from the worklist and the heap *)
                 let reach = ref 0 in
                 for i = 0 to !n_bcast - 1 do
                   let u = bcast.(i) in
                   reach := !reach + Graph.degree g u + Dual.gray_degree dual u
                 done;
                 !reach > (((2 * !n_bcast) + 8) * k_words) + !n_active + !heap_n
             in
             if use_kernel then begin
               let rows = Graph.adj_rows g in
               let ng = Dual.gray_count dual in
               let gmask = if ng > 0 then Dual.gray_masks dual else [||] in
               Bitset.clear k_once;
               Bitset.clear k_twice;
               Array.iter
                 (fun u ->
                   Bitset.acc2_or_into ~once:k_once ~twice:k_twice rows.(u);
                   if ng > 0 && Dual.gray_degree dual u > 0 then
                     Bitset.iter_inter
                       (fun e ->
                         Bitset.acc2_add ~once:k_once ~twice:k_twice
                           (Dual.gray_other dual e u))
                       gmask.(u) gray_active)
                 broadcasters;
               (* second sweep hands each receiving synced fiber or
                  parked listener its sender's message; the sender is unique because an
                  exactly-one-sender node lies in exactly one
                  broadcaster's reach set.  Skipped outright when nobody
                  received (the common case under heavy contention). *)
               if kernel_classify () then
                 Array.iter
                   (fun u ->
                     let m = sent u in
                     Bitset.iter_inter (fun v -> receives.(v) <- Recv m) rows.(u) k_recv;
                     if ng > 0 && Dual.gray_degree dual u > 0 then
                       Bitset.iter_inter
                         (fun e ->
                           let v = Dual.gray_other dual e u in
                           if Bitset.mem k_recv v then receives.(v) <- Recv m)
                         gmask.(u) gray_active)
                   broadcasters
             end
             else begin
               n_touched := 0;
               Array.iter
                 (fun u ->
                   Graph.iter_neighbors (fun v -> touch u v) g u;
                   Dual.iter_gray_adj
                     (fun v e -> if Bitset.mem gray_active e then touch u v)
                     dual u)
                 broadcasters;
               for i = 0 to !n_touched - 1 do
                 let v = touched.(i) in
                 (if sends.(v) = None then
                    match pending.(v) with
                    | No_fiber -> ()
                    | (Synced _ | Idling _ | Listening _) as p ->
                      if recv_count.(v) = 1 then begin
                        (* Idlers discard the message, but the delivery
                           still happened; a parked listener is woken. *)
                        (match p with
                        | Synced _ -> receives.(v) <- Recv (sent recv_from.(v))
                        | Listening _ ->
                          receives.(v) <- Recv (sent recv_from.(v));
                          woken.(!n_woken) <- v;
                          incr n_woken
                        | Idling _ | No_fiber -> ());
                        incr deliveries;
                        if tracing then
                          emit { Events.round = r; proc = v; kind = Deliver { src = recv_from.(v) } }
                      end
                      else begin
                        incr collisions;
                        if tracing then
                          emit { Events.round = r; proc = v; kind = Collide { senders = recv_count.(v) } }
                      end);
                 recv_count.(v) <- 0;
                 recv_from.(v) <- -1
               done
             end;
             Array.iter (fun v -> receives.(v) <- Own) broadcasters;
             p_stop Timing.Deliver
           end;
           (* 5. Resume every live fiber with its receive, then the
              listeners woken by a reception, then the parked fibers
              whose stretch ends this round.  All receives were computed
              before any resume, so next-round intents cannot bleed into
              this round.  Woken listeners leave the heap here, on the
              main domain, before any step. *)
           p_start ();
           idle_base := r + 1;
           n_joining := 0;
           let nw = !n_woken in
           n_woken := 0;
           for i = 0 to nw - 1 do
             ignore (heap_remove_at heap_pos.(woken.(i)))
           done;
           listen_wakes := !listen_wakes + nw;
           (* Pool dispatch + merge are a fixed per-round cost; only
              rounds with enough fibers to step amortise it. *)
           let use_resume_shards =
             resume_shards > 1 && !n_active + nw >= resume_auto_threshold
           in
           if use_resume_shards then begin
             (* Sharded resume: fix the work list up front — the synced
                fibers in worklist order, the woken listeners, then every
                parked fiber due this round in heap-pop order.  [idle]
                and [listen] guarantee dur >= 1, so any parking performed
                by a stepped fiber has a key >= r+1: the due set cannot
                grow while we step, which is what makes popping it before
                the first step sound.  Contiguous slices then step on
                Pool domains; per-process RNG streams are independently
                derived and a step reads only its own [receives] and
                [listen_from] slots, so slices are independent.  Merging
                the per-shard buffers in ascending shard order reproduces
                the sequential pop-all-then-step outcome exactly; any
                residual ordering freedom (heap layout among equal keys,
                worklist order) is unobservable in results — certified
                against the scalar path and [run_reference] by
                test_resume_shard. *)
             Array.blit active 0 resume_work 0 !n_active;
             Array.blit woken 0 resume_work !n_active nw;
             let mw = ref (!n_active + nw) in
             while !heap_n > 0 && heap_r.(0) = r do
               resume_work.(!mw) <- heap_pop ();
               incr mw
             done;
             let m = !mw in
             fiber_steps := !fiber_steps + m;
             if met then begin
               Metrics.incr m_resume_sharded_rounds;
               Metrics.add m_resume_sharded_steps m
             end;
             let bufs = get_resume_bufs () in
             for s = 0 to resume_shards - 1 do
               let b = bufs.(s) in
               b.rb_join_n <- 0;
               b.rb_idle_n <- 0;
               b.rb_finished <- 0;
               b.rb_decided <- 0;
               for i = s * m / resume_shards to (((s + 1) * m) / resume_shards) - 1 do
                 resume_assign.(resume_work.(i)) <- s
               done
             done;
             Pool.run_n (get_pool ())
               (fun s ->
                 for i = s * m / resume_shards to (((s + 1) * m) / resume_shards) - 1 do
                   step r resume_work.(i)
                 done)
               resume_shards;
             for s = 0 to resume_shards - 1 do
               let b = bufs.(s) in
               Array.blit b.rb_join 0 joining !n_joining b.rb_join_n;
               n_joining := !n_joining + b.rb_join_n;
               for i = 0 to b.rb_idle_n - 1 do
                 heap_push b.rb_idle_r.(i) b.rb_idle_v.(i)
               done;
               n_finished := !n_finished + b.rb_finished;
               n_decided := !n_decided + b.rb_decided
             done;
             for i = 0 to m - 1 do
               resume_assign.(resume_work.(i)) <- -1
             done
           end
           else begin
             fiber_steps := !fiber_steps + !n_active + nw;
             for i = 0 to !n_active - 1 do
               step r active.(i)
             done;
             for i = 0 to nw - 1 do
               step r woken.(i)
             done;
             while !heap_n > 0 && heap_r.(0) = r do
               incr fiber_steps;
               step r (heap_pop ())
             done
           end;
           Array.blit joining 0 active 0 !n_joining;
           n_active := !n_joining;
           p_stop Timing.Resume;
           match cfg.observer with
           | Some f ->
             f
               {
                 view_round = r;
                 view_broadcasters = broadcasters;
                 view_outputs = outputs;
                 view_decided = decided;
               }
           | None -> ()
         end
       done
     with Exit -> ());
    if prof then begin
      Timing.add_rounds (!round_counter - !ff_skipped);
      Timing.add_silent_skipped !ff_skipped
    end;
    if met then begin
      Metrics.incr m_runs;
      Metrics.add m_rounds !round_counter;
      Metrics.add m_sends !sends_total;
      Metrics.add m_deliveries !deliveries;
      Metrics.add m_collisions !collisions;
      Metrics.add m_bits_sent !bits_sent;
      Metrics.add m_silent_rounds !silent_rounds;
      Metrics.add m_fiber_steps !fiber_steps;
      Metrics.add m_listen_wakes !listen_wakes;
      if !timed_out then Metrics.incr m_timeouts;
      Metrics.observe m_run_rounds !round_counter
    end;
    {
      outputs;
      returns;
      rounds = !round_counter;
      decided_round = decided;
      stats =
        {
          rounds = !round_counter;
          sends = !sends_total;
          deliveries = !deliveries;
          collisions = !collisions;
          bits_sent = !bits_sent;
          silent_rounds = !silent_rounds;
        };
      timed_out = !timed_out;
    }

  (* Straightforward reference implementation: full 0..n-1 scans every
     round, no worklist, no fast-forward, adversary consulted every round
     (its per-round derived draws in broadcaster-free rounds are discarded,
     which is exactly the invariant that makes [run]'s skip sound).  Kept
     as the differential-testing oracle for [run]; see
     test/test_engine_equiv.ml.

     [cfg.sink] is ignored here on purpose: event emission is untestable
     by differencing (it is defined as having no observable effect on the
     result), and keeping the oracle free of instrumentation means the
     equivalence tests also certify that tracing never leaks into [run]'s
     semantics. *)
  let run_reference cfg body =
    let dual = cfg.dual in
    let nn = Dual.n dual in
    let root_rng = Rng.create cfg.seed in
    let adv_root = Rng.derive root_rng 0x5EED in
    let wake = match cfg.wake with Some w -> Array.copy w | None -> Array.make nn 1 in
    validate_wake wake;
    let outputs = Array.make nn None in
    let decided = Array.make nn None in
    let returns = Array.make nn None in
    let status = Array.make nn Asleep in
    let sends = Array.make nn None in
    let pending = Array.make nn No_fiber in
    let resume_round = Array.make nn 0 in
    let listen_from = Array.make nn 0 in
    let round_counter = ref 0 in
    let sends_total = ref 0 and deliveries = ref 0 and collisions = ref 0 in
    let bits_sent = ref 0 and silent_rounds = ref 0 in
    let mk_ctx v =
      {
        me = v;
        n = nn;
        delta_bound = cfg.delta_bound;
        b_bits = cfg.b_bits;
        rng = Rng.derive root_rng (v + 1);
        local_round = 0;
        current_detector = (fun () -> Detector.at cfg.detector !round_counter);
        do_output =
          (fun value ->
            match outputs.(v) with
            | Some old when old <> value ->
              invalid_arg
                (Printf.sprintf "Engine: process %d re-output %d after %d" v value old)
            | Some _ -> ()
            | None ->
              outputs.(v) <- Some value;
              decided.(v) <- Some !round_counter);
      }
    in
    let idle_base = ref 0 in
    let handler : (int, unit) Effect.Deep.handler =
      {
        retc = (fun v -> status.(v) <- Finished);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sync (v, send) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  sends.(v) <- send;
                  pending.(v) <- Synced k)
            | Idle (v, dur) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  pending.(v) <- Idling k;
                  resume_round.(v) <- park_key !idle_base dur)
            | Listen (v, dur) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  pending.(v) <- Listening k;
                  listen_from.(v) <- !idle_base;
                  resume_round.(v) <- park_key !idle_base dur)
            | _ -> None);
      }
    in
    let start v =
      status.(v) <- Running;
      let ctx = mk_ctx v in
      Effect.Deep.match_with
        (fun () ->
          returns.(v) <- Some (body ctx);
          v)
        () handler
    in
    let recv_count = Array.make nn 0 in
    let recv_msg : M.t option array = Array.make nn None in
    let touched = ref [] in
    let gray_active = Bitset.create (max 1 (Dual.gray_count dual)) in
    let receives = Array.make nn Silence in
    let g = Dual.g dual in
    let finished () = Array.for_all (fun s -> s = Finished) status in
    let decided_all () = Array.for_all (fun o -> o <> None) outputs in
    let stop_now () =
      match cfg.stop with
      | All_done -> finished ()
      | All_decided -> decided_all () || finished ()
      | At_round r -> !round_counter >= r
    in
    let timed_out = ref false in
    (try
       while not (stop_now ()) do
         if !round_counter >= cfg.max_rounds then begin
           timed_out := true;
           raise Exit
         end;
         incr round_counter;
         let r = !round_counter in
         (* 1. Wake. *)
         idle_base := r;
         for v = 0 to nn - 1 do
           if status.(v) = Asleep && wake.(v) = r then start v
         done;
         (* 2. Collect broadcasters and enforce the message-size bound. *)
         let bcast = ref [] in
         for v = nn - 1 downto 0 do
           if sends.(v) <> None then bcast := v :: !bcast
         done;
         let broadcasters = Array.of_list !bcast in
         Array.iter
           (fun v ->
             incr sends_total;
             let m = match sends.(v) with Some m -> m | None -> assert false in
             let sz = M.size_bits ~n:nn m in
             bits_sent := !bits_sent + sz;
             match cfg.b_bits with
             | Some b when sz > b ->
               invalid_arg
                 (Format.asprintf
                    "Engine: process %d sent %d bits > b=%d in round %d: %a" v sz b r M.pp m)
             | _ -> ())
           broadcasters;
         if Array.length broadcasters = 0 then incr silent_rounds;
         (* 3. Adversary, from this round's derived stream. *)
         Bitset.clear gray_active;
         let adv_rng = Rng.derive adv_root r in
         Adversary.choose cfg.adversary ~round:r ~broadcasters dual adv_rng gray_active;
         (* 4. Deliveries along E plus activated gray edges. *)
         let touch v m =
           if recv_count.(v) = 0 then touched := v :: !touched;
           recv_count.(v) <- recv_count.(v) + 1;
           recv_msg.(v) <- Some m
         in
         Array.iter
           (fun u ->
             let m = match sends.(u) with Some m -> m | None -> assert false in
             Graph.iter_neighbors (fun v -> touch v m) g u;
             Dual.iter_gray_adj
               (fun v e -> if Bitset.mem gray_active e then touch v m)
               dual u)
           broadcasters;
         (* 5. Receives for every live fiber — parked idlers count towards
            deliveries/collisions but discard the payload; listeners keep
            it like synced fibers. *)
         for v = 0 to nn - 1 do
           receives.(v) <- Silence;
           match pending.(v) with
           | No_fiber -> ()
           | Synced _ | Idling _ | Listening _ ->
             if sends.(v) <> None then receives.(v) <- Own
             else if recv_count.(v) = 1 then begin
               (match pending.(v) with
               | Synced _ | Listening _ -> (
                 match recv_msg.(v) with
                 | Some m -> receives.(v) <- Recv m
                 | None -> assert false)
               | Idling _ | No_fiber -> ());
               incr deliveries
             end
             else if recv_count.(v) >= 2 then incr collisions
         done;
         List.iter
           (fun v ->
             recv_count.(v) <- 0;
             recv_msg.(v) <- None)
           !touched;
         touched := [];
         (* 6. Resume synced fibers, then parked fibers whose stretch ends
            now and listeners that received (round by round, a listener
            is a silent sync that returns at its first [Recv]).  Fibers
            parked by step one start at round r+1, so step two skips
            them. *)
         idle_base := r + 1;
         for v = 0 to nn - 1 do
           match pending.(v) with
           | Synced k ->
             sends.(v) <- None;
             pending.(v) <- No_fiber;
             Effect.Deep.continue k receives.(v)
           | Idling _ | Listening _ | No_fiber -> sends.(v) <- None
         done;
         for v = 0 to nn - 1 do
           match pending.(v) with
           | Idling k when resume_round.(v) = r ->
             pending.(v) <- No_fiber;
             Effect.Deep.continue k ()
           | Listening k when listen_from.(v) <= r -> (
             match receives.(v) with
             | Recv m ->
               pending.(v) <- No_fiber;
               Effect.Deep.continue k (Some (r - listen_from.(v) + 1, m))
             | Own | Silence ->
               if resume_round.(v) = r then begin
                 pending.(v) <- No_fiber;
                 Effect.Deep.continue k None
               end)
           | _ -> ()
         done;
         match cfg.observer with
         | Some f ->
           f
             {
               view_round = r;
               view_broadcasters = broadcasters;
               view_outputs = outputs;
               view_decided = decided;
             }
         | None -> ()
       done
     with Exit -> ());
    {
      outputs;
      returns;
      rounds = !round_counter;
      decided_round = decided;
      stats =
        {
          rounds = !round_counter;
          sends = !sends_total;
          deliveries = !deliveries;
          collisions = !collisions;
          bits_sent = !bits_sent;
          silent_rounds = !silent_rounds;
        };
      timed_out = !timed_out;
    }
end
