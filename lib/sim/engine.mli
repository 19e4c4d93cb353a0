(** The dual graph round engine.

    Processes are effect-based fibers written in direct style: they call
    {!Make.sync} once per round with an optional message; the engine applies
    the Section 2 semantics (adversarial reach set over gray edges, receive
    iff exactly one reachable broadcaster and not broadcasting yourself, no
    collision detection) and resumes every fiber with its receive. *)

module type MESSAGE = sig
  type t

  (** Encoded size in bits given network size (an id costs ⌈log₂ n⌉). *)
  val size_bits : n:int -> t -> int

  val pp : Format.formatter -> t -> unit
end

type stop_condition =
  | All_done  (** stop when every fiber has returned *)
  | All_decided  (** stop when every process has produced an output *)
  | At_round of int  (** run exactly this many rounds *)

type stats = {
  rounds : int;
  sends : int;
  deliveries : int;
  collisions : int;
  bits_sent : int;
  silent_rounds : int;
      (** rounds in which nothing broadcast; the engine fast-forwards
          stretches of them when no fiber is live *)
}

(** Monotone version of the observable round semantics; bumped whenever
    the delivery rule, adversary derivation, or RNG streams change. *)
val semantics_version : int

(** Cheap digest of the engine configuration space, folded into
    {!Rn_util.Store} cache keys so that stored cell results computed
    under different engine semantics never collide. *)
val semantics_digest : string

module Make (M : MESSAGE) : sig
  (** What a process sees at the end of a round: its own broadcast, silence
      (zero or ≥ 2 reachable broadcasters — indistinguishable), or a
      message. *)
  type receive = Own | Silence | Recv of M.t

  (** Read-only snapshot passed to the per-round observer. *)
  type view = {
    view_round : int;
    view_broadcasters : int array;
    view_outputs : int option array;
    view_decided : int option array;
  }

  type config = {
    dual : Rn_graph.Dual.t;
    detector : Rn_detect.Detector.dynamic;
    adversary : Adversary.t;
    seed : int;
    b_bits : int option;  (** enforced bound on message size, if given *)
    delta_bound : int;  (** global Δ bound known to processes *)
    wake : int array option;  (** global wake round per node (≥ 1) *)
    stop : stop_condition;
    max_rounds : int;
    observer : (view -> unit) option;
    sink : Events.sink option;
        (** structured event trace destination; emission has no
            observable effect on the run ({!run_reference} ignores it) *)
    kernel : [ `Auto | `On | `Off ];
        (** dense-round delivery kernel: [`Auto] chooses per round on a
            cost model (scalar per-edge touches for sparse rounds, the
            word-parallel once/twice kernel when the broadcasters' total
            reach exceeds the kernel's word-sweep cost); [`On] forces
            the kernel whenever legal, [`Off] never uses it.  An
            attached [sink] always forces the scalar path.  The choice
            is pure evaluation strategy — results are identical. *)
    shards : int;
        (** intra-run delivery sharding (≥ 1).  With [shards > 1] and
            the kernel not [`Off] (and no [sink]), each broadcasting
            round partitions the sorted broadcaster array into [shards]
            contiguous slices, scatters every slice's reach into a
            private once/twice accumulator pair on an {!Rn_util.Pool}
            domain, and merges the pairs in fixed shard order.  The
            accumulator pair is a pure function of the contribution
            multiset, so results are byte-identical at any shard count
            — pure evaluation strategy, like [kernel]. *)
    adv_kernel : [ `Auto | `On | `Off ];
        (** word-parallel adversary kernel for the deterministic
            policies ({!Adversary.all_gray}, {!Adversary.spiteful},
            {!Adversary.jamming}): mask algebra over the dual graph's
            CSR structures instead of per-edge callbacks.  [`Auto]
            switches per round on the policy's own cost model; [`On]
            forces the kernel whenever the policy has one; [`Off] never
            uses it.  An attached [sink] forces the scalar path, and
            randomised policies always run scalar (their draw sequence
            is the semantics).  Shares [shards] and the Pool with
            delivery.  Pure evaluation strategy — byte-identical results
            at any setting. *)
    resume_shards : int;
        (** resume-phase sharding (≥ 1).  With [resume_shards > 1] (and
            no [sink]), each round in which at least 1024 fibers await
            their receive (synced fibers plus listeners woken by a
            reception) — enough to amortise the Pool dispatch — cuts
            its fiber work list (the synced fibers in worklist order,
            the woken listeners, then the parked fibers due this round
            in heap-pop order) into
            contiguous slices stepped in parallel on {!Rn_util.Pool}
            domains (OCaml 5 continuations are not domain-pinned).
            Every shard collects its broadcast intents, parkings,
            and finish/decide counts into a private preallocated buffer;
            the main domain merges the buffers in ascending shard order.
            Steps are independent because per-process RNG streams are
            derived independently from the seed and a step reads only
            its own receive slot — so the broadcaster set, wake buckets,
            idle heap, and every downstream adversary and delivery
            decision are byte-identical at any shard count.  An attached
            [sink] forces the scalar step (Decide events must be emitted
            in step order).  Pure evaluation strategy, like [kernel] and
            [shards]. *)
  }

  (** Build a config with sensible defaults: silent adversary, seed 0,
      [delta_bound] defaulting to the true max degree of [G], synchronous
      wake-up, stop at [All_done], 2M-round safety cap, no tracing, both
      kernels [`Auto], one delivery shard and one resume shard. *)
  val config :
    ?adversary:Adversary.t ->
    ?seed:int ->
    ?b_bits:int ->
    ?delta_bound:int ->
    ?wake:int array ->
    ?stop:stop_condition ->
    ?max_rounds:int ->
    ?observer:(view -> unit) ->
    ?sink:Events.sink ->
    ?kernel:[ `Auto | `On | `Off ] ->
    ?shards:int ->
    ?adv_kernel:[ `Auto | `On | `Off ] ->
    ?resume_shards:int ->
    detector:Rn_detect.Detector.dynamic ->
    Rn_graph.Dual.t ->
    config

  (** Per-process handle available inside the fiber. *)
  type ctx

  val me : ctx -> int
  val n : ctx -> int

  (** The Δ bound shared by all processes (phase alignment). *)
  val delta_bound : ctx -> int

  val b_bits : ctx -> int option

  (** This process's private deterministic random stream. *)
  val rng : ctx -> Rn_util.Rng.t

  (** Completed rounds since this process woke (local round number). *)
  val round : ctx -> int

  (** Current round's link detector set [L_me]. *)
  val detector : ctx -> Rn_util.Bitset.t

  val detector_mem : ctx -> int -> bool

  (** Record the process's problem output (0 or 1).  Idempotent for equal
      values; raises on conflicting re-output. *)
  val output : ctx -> int -> unit

  (** Execute one round, optionally broadcasting. *)
  val sync : ctx -> M.t option -> receive

  (** [idle ctx k]: listen for [k] rounds, discarding receives.
      Semantically identical to [k] silent syncs, but performed as a single
      effect so the engine can park the fiber for the whole stretch (and
      fast-forward rounds in which no fiber is live at all).  [k <= 0]
      returns at once, performing no effect. *)
  val idle : ctx -> int -> unit

  (** [listen ctx ~upto:k]: up to [k] silent syncs that stop after the
      first [Recv].  Returns [Some (j, m)] when the [j]-th of those rounds
      ([1 <= j <= k]) delivered [m], else [None] after [k] rounds;
      {!round} advances by [j] or [k].  Semantically identical to the
      loop of [sync ctx None], but performed as a single effect: the fiber
      parks like an idler and the delivery phase wakes it only on a
      reception, so rounds it spends hearing [Silence] cost no resume
      (and, when every other fiber is parked too, are fast-forwarded).
      A reception in the [k]-th round returns [Some (k, m)].  [k <= 0]
      returns [None] at once, performing no effect, like {!idle}.
      Stretches too long for the round counter never end by themselves:
      [listen ~upto:max_int] waits for a reception or the run's stop. *)
  val listen : ctx -> upto:int -> (int * M.t) option

  (** Broadcast with probability [p], else listen. *)
  val sync_p : ctx -> float -> M.t -> receive

  type 'a result = {
    outputs : int option array;
    returns : 'a option array;  (** fiber return values (None on timeout) *)
    rounds : int;
    decided_round : int option array;
    stats : stats;
    timed_out : bool;
  }

  (** Run all processes in lock step until the stop condition (or
      [max_rounds], setting [timed_out]).

      The round loop costs O(activity) per round: live fibers sit in a
      worklist, wake rounds are pre-bucketed, idling and listening fibers
      park in a heap (a listener is resumed only in the round it receives
      or its stretch ends), and stretches of rounds in which no fiber is
      live are skipped outright — so a listen-only stretch costs neither
      resumes nor, when nobody else runs, round iterations.  One effect
      handler serves every fiber of a run.  The adversary's
      RNG is derived per round from the seed, which is what makes the skip
      sound.  If the detector declares [stabilizes_at], queries after the
      stabilisation round are served from a cache — detectors whose [at]
      violates the declared stabilisation get the cached value.

      When [config.sink] is set, one {!Events.event} is emitted per wake,
      broadcast, delivery, collision, gray-edge resolution, first
      decision, and fast-forward jump.  Emission reads no RNG and mutates
      no engine state, so the result is byte-identical to an untraced
      run.  When {!Rn_util.Metrics.enabled} (sampled once per run),
      engine-level [engine.*] counters and histograms are recorded. *)
  val run : config -> (ctx -> 'a) -> 'a result

  (** Straightforward O(n)-scans-per-round implementation of exactly the
      same semantics (including the per-round adversary derivation).  Slow;
      exists as the differential-testing oracle for [run] — for any config
      and body the two must agree on [outputs], [returns], [decided_round],
      [rounds], [stats], and [timed_out]. *)
  val run_reference : config -> (ctx -> 'a) -> 'a result
end
