(** Router-side counters: request traffic (front-cache hits, forwards,
    shard connections opened, failovers, unroutable requests),
    replication outcomes (acks, failures, missed quorums), the health
    prober's activity (probes, failures, up/down transitions, warm
    writes) and an in-flight gauge with high-water mark.  Mutex-protected; rendered by the router's
    [stats] verb and dumped to disk at exit for the CI artifact. *)

type t

val create : unit -> t

val enter : t -> unit
(** A request arrived: counts it and raises the in-flight gauge. *)

val leave : t -> unit
val inflight : t -> int

val error : t -> unit
val front_hit : t -> unit

val forward : t -> unit
(** A request was sent to a shard (counted per attempt). *)

val connect : t -> unit
(** The router opened a new connection to a shard (health probes
    included); forwards over a kept idle connection do not count. *)

val failover : t -> unit
(** An attempt failed over to the next owner (overload, timeout or
    connection loss). *)

val unrouted : t -> unit
(** Every candidate owner was exhausted without a usable answer. *)

val replication : t -> unit
(** One replica acknowledged a [put]. *)

val replication_failure : t -> unit

val quorum_failure : t -> unit
(** A write ended with fewer than [quorum] copies. *)

val probe : t -> unit
val probe_failure : t -> unit
val marked_up : t -> unit
val marked_down : t -> unit

val warmed : t -> unit
(** One front-cache entry was pushed to a recovered or new shard. *)

val hint_recorded : t -> unit
(** A missed write was parked in the hint log. *)

val hint_dropped : t -> unit
(** A parked hint was evicted by the log's capacity bound. *)

val read_repair : t -> unit
(** A failover read scheduled a repair of an owner that failed. *)

val repair_round : t -> unit
(** The anti-entropy loop compared one owner pair. *)

val divergent : t -> keys:int -> unit
(** Anti-entropy found [keys] divergent keys in a round. *)

val repair : t -> unit
(** One entry was successfully pushed by a repair path (hint drain,
    anti-entropy, or fsck --repair through the router). *)

val to_json : t -> Bi_engine.Sink.json
