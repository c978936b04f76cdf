(** The cluster front-end: routes analysis requests across shards.

    Speaks the same line-delimited {!Bi_serve.Protocol} as a single
    shard, so clients cannot tell a router from a server.  Each
    analysis request is fingerprinted exactly as a shard would
    fingerprint it ([bi-ncs-v1] canonical form), looked up in a small
    front cache, and otherwise forwarded — original line, verbatim — to
    the key's owners on the consistent-hash {!Ring}, primary first.

    Failover: transport failure and [overloaded] move the request to
    the next owner (and Down owners are kept as a last resort);
    [error] and [deadline_exceeded] are returned as-is, since they are
    deterministic or belong to the caller's budget.  A fresh compute is
    replicated synchronously to further owners until [quorum] copies
    exist; a [put] is fanned out to all routable owners and must reach
    the quorum itself.

    Connections: shard exchanges reuse at most one kept idle connection
    per member; one the shard hung up on while idle is retried once on
    a fresh connection, while a read timeout fails over at once.
    Health probes always connect afresh.

    Health: a poller thread probes members with the [health] verb on a
    deterministic schedule ({!Membership}: up/suspect/down with
    exponential probe backoff) and, on every Down→Up recovery or member
    addition, warms the shard with the front-cache entries it owns —
    restoring byte-identical warm answers without recomputation.

    Membership is static ([~members]) unless [~members_file] is given:
    then SIGHUP re-reads the file (members separated by commas or
    whitespace), swaps in a new ring, keeps surviving members' states,
    and probes + warms the newcomers.

    Self-healing: a write that cannot reach an owner (down, partitioned,
    refusing) is parked in a {!Hints} log and delivered on the owner's
    Down→Up recovery — before warming; a failover read served from a
    replica's cache parks the answer for each owner that failed
    (read-repair); and every [repair_interval_ticks] poller ticks an
    anti-entropy round compares one Up owner pair's [digest] rollups
    and converges the differing buckets via [pull] + [put] ({!Fsck}'s
    divergence rule: the holder earliest in ring-owner order wins). *)

type config = {
  replicas : int;  (** Owners per key (including the primary). *)
  quorum : int;  (** Copies a write must reach; [<= replicas]. *)
  vnodes : int;  (** Ring points per member. *)
  front_capacity : int;  (** Front-cache entries. *)
  probe_interval_s : float;  (** Seconds per membership tick. *)
  probe_timeout_s : float;  (** Health-probe read timeout. *)
  shard_timeout_s : float;  (** Forwarded-request read timeout. *)
  hint_capacity : int;  (** Parked writes the hint log holds. *)
  repair_interval_ticks : int;
      (** Poller ticks between anti-entropy rounds; [0] disables the
          loop (hinted handoff and read-repair stay on). *)
}

val default_config : config
(** 2 replicas, quorum 2, 64 vnodes, 4096 front entries, 250 ms ticks,
    2 s probe timeout, 30 s shard timeout, 512 hints, anti-entropy
    every 8 ticks. *)

val addr_of_member : string -> (Bi_serve.Client.addr, string) result
(** The member-address grammar shared by the router and [bi fsck]: a
    Unix-socket path (contains ['/']), a bare port, or
    [127.0.0.1:port] / [localhost:port]. *)

val parse_members : string -> string list
(** Splits a member list on commas and whitespace, dropping empties —
    the format of [--members] and of the SIGHUP-reloadable members
    file.  Duplicate members are dropped (first occurrence kept, order
    preserved) with a warning on stderr: a duplicate would double-weight
    the ring and let one shard count twice toward the quorum. *)

val run :
  ?on_ready:(unit -> unit) ->
  ?metrics_out:string ->
  ?members_file:string ->
  ?hints_path:string ->
  ?config:config ->
  members:string list ->
  Bi_serve.Lineserver.listen ->
  unit
(** Serves until a [shutdown] request, SIGINT or SIGTERM; then joins
    the prober and, with [~metrics_out], dumps router metrics, member
    states and front-cache stats as one JSON line.  A member is a
    Unix-socket path (contains ['/']), a bare port, or
    [127.0.0.1:port] / [localhost:port].  With [~hints_path] the hint
    log is durable: parked writes survive a router restart and are
    replayed from disk.
    @raise Failure on an empty or malformed member list, [quorum < 1],
    [replicas < quorum], or [hint_capacity < 1]. *)
