(** Round adversaries controlling gray (unreliable) links. *)

type t

val name : t -> string

(** Fill [active] (a cleared bitset over gray-edge ids) with this round's
    activated gray edges; the adversary sees the broadcasters first, as in
    Section 2.  The scalar reference path — always available, and the one
    {!val:choose_kernel} must match bit-for-bit. *)
val choose :
  t ->
  round:int ->
  broadcasters:int array ->
  Rn_graph.Dual.t ->
  Rn_util.Rng.t ->
  Rn_util.Bitset.t ->
  unit

(** {2 Word-parallel kernel path}

    Deterministic policies ({!all_gray}, {!spiteful}, {!jamming}) carry a
    second implementation of the same activation set that works by mask
    algebra over the dual graph's CSR structures instead of per-edge
    callbacks, mirroring the engine's delivery kernel.  Randomised
    policies ({!bernoulli}, {!harassing}) have none: their per-edge draw
    sequence IS the semantics.  A kernel is certified byte-identical to
    its scalar [choose]. *)

(** Preallocated per-run kernel scratch. *)
type scratch

val make_scratch : Rn_graph.Dual.t -> scratch

val has_kernel : t -> bool

(** [`Auto] profitability estimate for this round's broadcasters; [false]
    when the policy has no kernel.  O(#broadcasters). *)
val kernel_wins : t -> broadcasters:int array -> Rn_graph.Dual.t -> bool

(** Kernel counterpart of {!val:choose}: same contract, same resulting
    bytes in [active].  Raises [Invalid_argument] if the policy has no
    kernel (check {!has_kernel}). *)
val choose_kernel :
  t ->
  round:int ->
  broadcasters:int array ->
  Rn_graph.Dual.t ->
  Rn_util.Rng.t ->
  scratch ->
  Rn_util.Bitset.t ->
  unit

(** Never activates a gray edge. *)
val silent : t

(** Activates every gray edge every round. *)
val all_gray : t

(** Every gray edge independently active with probability [p] per round. *)
val bernoulli : float -> t

(** Gray edges incident to broadcasters active with probability [p]. *)
val harassing : float -> t

(** The Section 7 adversary: all gray edges active iff ≥ 2 broadcasters. *)
val spiteful : t

(** The broadcast-hardness adversary ([10,11]-style): adds one gray
    broadcaster at every receiver about to hear a solo reliable sender,
    and never activates a gray edge that could help. *)
val jamming : t

val custom :
  name:string ->
  (round:int ->
  broadcasters:int array ->
  Rn_graph.Dual.t ->
  Rn_util.Rng.t ->
  Rn_util.Bitset.t ->
  unit) ->
  t
