(** The value family a request asks for, decided once.

    Every answer the system serves belongs to one of four families: the
    six exact Nash quantities ([Exhaustive]), their certified brackets
    ([Certified]), or the exact coarse-correlated and communication
    values ([Cce], [Comm]).  Requests name a family through two wire
    axes, {!Bi_certify.Mode} and {!Bi_correlated.Concept}; this module
    is the only place those axes are combined.  The shard, the router
    and the CLI all resolve, key, solve and answer through it, so a
    routed request lands on the key its owner shard caches it under. *)

type t = Exhaustive | Certified | Cce | Comm

val to_string : t -> string
(** ["exhaustive" | "certified" | "cce" | "comm"]. *)

val resolve :
  mode:Bi_certify.Mode.t ->
  concept:Bi_correlated.Concept.t ->
  Bi_ncs.Bayesian_ncs.t Lazy.t ->
  t
(** Concept first: [Cce] and [Comm] ignore the mode.  Nash then takes
    the mode, with [Auto] resolved by {!Bi_certify.Mode.resolve} on the
    game's valid-profile count.  The game is forced only for nash +
    [Auto].
    @raise Invalid_argument when forcing the game raises it. *)

val key : t -> string -> string
(** The cache and routing key of a game fingerprint: the bare
    fingerprint for [Exhaustive], otherwise the tier-qualified
    {!Bi_cache.Fingerprint.with_mode} / [with_concept] key.  Keys are
    the ones every earlier release issued, so store files replay
    unchanged. *)

val fits : t -> Bi_cache.Service.value -> bool
(** Whether a cached value has the shape this tier stores: an
    [Analysis] for [Exhaustive], a [Payload] otherwise. *)

val solve :
  ?pool:Bi_engine.Pool.t ->
  ?budget:Bi_engine.Budget.t ->
  ?check:bool ->
  t ->
  Bi_ncs.Bayesian_ncs.t ->
  (Bi_cache.Service.value, string) result
(** Runs the tier's solver: {!Bi_ncs.Bayesian_ncs.analyze},
    {!Bi_certify.Solve.certify} or {!Bi_correlated.Correlated.analyze},
    encoded as the value the cache stores.  With [~check:true] (default
    [false]) the certified and correlated certificates are re-verified
    first, and a rejected one is an [Error] naming it; without it the
    result is always [Ok]. *)

val body : Bi_cache.Service.value -> Bi_engine.Sink.json
(** The encoded answer body of a cached value. *)

val fields :
  t ->
  fingerprint:string ->
  cached:bool ->
  Bi_engine.Sink.json ->
  (string * Bi_engine.Sink.json) list
(** The success fields every answer carries, given its encoded body:
    ["fingerprint"], ["cached"], then ["analysis"] for [Exhaustive],
    ["mode"] and ["certified"] for [Certified], ["concept"] and
    ["correlated"] for [Cce]/[Comm]. *)

val ok :
  t -> fingerprint:string -> cached:bool -> Bi_engine.Sink.json ->
  Bi_engine.Sink.json
(** The wire success response: ["ok"]: [true] followed by {!fields}. *)
