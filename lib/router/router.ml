module Sink = Bi_engine.Sink
module Client = Bi_serve.Client
module Protocol = Bi_serve.Protocol
module Lineserver = Bi_serve.Lineserver
module Lru = Bi_cache.Lru
module Fingerprint = Bi_cache.Fingerprint
module Registry = Bi_constructions.Registry

type config = {
  replicas : int;
  quorum : int;
  vnodes : int;
  front_capacity : int;
  probe_interval_s : float;
  probe_timeout_s : float;
  shard_timeout_s : float;
  hint_capacity : int;
  repair_interval_ticks : int;
}

let default_config =
  {
    replicas = 2;
    quorum = 2;
    vnodes = Ring.default_vnodes;
    front_capacity = 4096;
    probe_interval_s = 0.25;
    probe_timeout_s = 2.;
    shard_timeout_s = 30.;
    hint_capacity = Hints.default_capacity;
    repair_interval_ticks = 8;
  }

(* One anti-entropy round compares one owner pair; bounding the buckets
   repaired per round keeps each round short so the poller's probe
   cadence never starves behind a large divergence. *)
let repair_buckets_per_round = 16

type t = {
  config : config;
  metrics : Metrics.t;
  membership : Membership.t;
  mutable ring : Ring.t;  (* immutable value, swapped under [ring_lock] *)
  ring_lock : Mutex.t;
  front : Sink.json Lru.t;  (* fingerprint -> encoded analysis *)
  front_lock : Mutex.t;
  hints : Hints.t;
  ls : Lineserver.t;
  members_file : string option;
  reload : bool Atomic.t;  (* set by SIGHUP, consumed by the poller *)
  mutable repair_cursor : int;  (* poller-thread only *)
  idle : (string, Client.t list) Hashtbl.t;  (* member -> kept connections *)
  idle_lock : Mutex.t;
}

(* --- member addresses ------------------------------------------------- *)

let addr_of_member m =
  let port_of s =
    match int_of_string_opt s with
    | Some p when p > 0 && p < 65536 -> Ok p
    | _ -> Error (Printf.sprintf "member %S: invalid port" m)
  in
  if String.contains m '/' then Ok (Client.Unix_path m)
  else
    match String.rindex_opt m ':' with
    | None -> Result.map (fun p -> Client.Tcp_port p) (port_of m)
    | Some i ->
      let host = String.sub m 0 i in
      let port = String.sub m (i + 1) (String.length m - i - 1) in
      if host = "127.0.0.1" || host = "localhost" then
        Result.map (fun p -> Client.Tcp_port p) (port_of port)
      else
        Error
          (Printf.sprintf
             "member %S: only loopback (127.0.0.1) or socket-path members \
              are supported"
             m)

let validate_members members =
  if members = [] then Error "no members given"
  else
    List.fold_left
      (fun acc m ->
        match (acc, addr_of_member m) with
        | (Error _ as e), _ -> e
        | Ok (), Ok _ -> Ok ()
        | Ok (), Error e -> Error e)
      (Ok ()) members

(* --- ring and front-cache access -------------------------------------- *)

let current_ring t =
  Mutex.lock t.ring_lock;
  let r = t.ring in
  Mutex.unlock t.ring_lock;
  r

let owners t fingerprint =
  Ring.owners (current_ring t) ~n:t.config.replicas fingerprint

let front_find t fingerprint =
  Mutex.lock t.front_lock;
  let v = Lru.find t.front fingerprint in
  Mutex.unlock t.front_lock;
  v

let front_store t fingerprint analysis =
  Mutex.lock t.front_lock;
  Lru.add t.front fingerprint analysis;
  Mutex.unlock t.front_lock

let front_snapshot t =
  Mutex.lock t.front_lock;
  let entries = Lru.fold (fun acc k v -> (k, v) :: acc) [] t.front in
  let length = Lru.length t.front and capacity = Lru.capacity t.front in
  Mutex.unlock t.front_lock;
  (entries, length, capacity)

(* --- shard connections ------------------------------------------------ *)

(* Forwards, replication puts, digests, pulls and repair writes reuse a
   kept connection per member instead of connecting for every exchange.
   The cap is measured on routed-mix (3 shards, seed 1, 30 s runs on a
   2-vCPU VM pinned to one CPU).  Against the connect-per-exchange
   build, one kept connection took the median throughput from 4.3k to
   7.0k req/s over 10 alternated pairs at unchanged peak RSS (14.5 vs
   14.6 MB).  Two took throughput 30% higher again, but peak RSS to
   17.9 MB against 14.5 (3 alternated pairs), past the benchmark's 20%
   bound.  The extra memory is the shards' major heap: each kept
   connection pins a shard connection thread, and more throughput
   stores and churns more first-seen keys per shard.  An exchange that
   finds no kept connection opens one, and closes it afterwards when
   the member's slot is already full. *)
let idle_per_member = 1

let take_idle t member =
  Mutex.lock t.idle_lock;
  let client =
    match Hashtbl.find_opt t.idle member with
    | Some (c :: rest) ->
      Hashtbl.replace t.idle member rest;
      Some c
    | Some [] | None -> None
  in
  Mutex.unlock t.idle_lock;
  client

(* Keeps a connection that just answered, unless the member's slot is
   full or the member left the membership.  Checked under [idle_lock],
   so a reload's [drop_idle] of a departed member cannot miss a
   connection kept concurrently. *)
let release t member client =
  Mutex.lock t.idle_lock;
  let pooled = Option.value ~default:[] (Hashtbl.find_opt t.idle member) in
  let kept =
    List.length pooled < idle_per_member
    && Membership.state t.membership member <> None
  in
  if kept then Hashtbl.replace t.idle member (client :: pooled);
  Mutex.unlock t.idle_lock;
  if not kept then Client.close client

let drop_idle t member =
  Mutex.lock t.idle_lock;
  let pooled = Option.value ~default:[] (Hashtbl.find_opt t.idle member) in
  Hashtbl.remove t.idle member;
  Mutex.unlock t.idle_lock;
  List.iter Client.close pooled

let close_idle t =
  Mutex.lock t.idle_lock;
  let pooled = Hashtbl.fold (fun _ cs acc -> cs @ acc) t.idle [] in
  Hashtbl.reset t.idle;
  Mutex.unlock t.idle_lock;
  List.iter Client.close pooled

let connect t ~timeout_s member =
  match addr_of_member member with
  | Error e -> Error (Client.Io e)
  | Ok addr -> (
    match Client.make ~timeout_s addr with
    | exception Unix.Unix_error (err, _, _) ->
      Error (Client.Io (Unix.error_message err))
    | client ->
      Metrics.connect t.metrics;
      Ok client)

(* A failure closes the (now broken) client; a success keeps it. *)
let send t member client line =
  match Client.request_line client line with
  | Ok _ as ok ->
    release t member client;
    ok
  | Error _ as e ->
    Client.close client;
    e

(* One request to a shard, no retry loop: a failed or overloaded shard
   must surface immediately so the router can fail over to the next
   owner instead of camping on a corpse; the health prober (not the
   request path) is what decides a shard is down.  The one retry is for
   a kept connection the shard hung up on while it sat idle (restart,
   idle timeout, partition): that speaks of the old connection, not of
   the shard, so the request goes once more on a fresh connection.  A
   read timeout is never retried — a stuck shard costs one
   [shard_timeout_s], not two.  Any failure closes the member's kept
   connection too. *)
let exchange t member line =
  let fresh () =
    match connect t ~timeout_s:t.config.shard_timeout_s member with
    | Error _ as e -> e
    | Ok client -> send t member client line
  in
  let result =
    match take_idle t member with
    | None -> fresh ()
    | Some client -> (
      match send t member client line with
      | Error _ when Client.hung_up client -> fresh ()
      | r -> r)
  in
  if Result.is_error result then drop_idle t member;
  result

let request t member j = exchange t member (Sink.to_string j)

(* A member that goes Down loses its kept connection. *)
let note_failure t ~tick member =
  let verdict = Membership.note_failure t.membership ~now:tick member in
  if verdict = `Went_down then drop_idle t member;
  verdict

let put_to t ~tick ?(kind = "analysis") member ~fingerprint body =
  Metrics.forward t.metrics;
  match request t member (Protocol.put_request ~kind ~fingerprint body) with
  | Ok resp when Protocol.is_ok resp ->
    Metrics.replication t.metrics;
    true
  | Ok _ ->
    Metrics.replication_failure t.metrics;
    false
  | Error _ ->
    Metrics.replication_failure t.metrics;
    ignore (note_failure t ~tick member);
    false

(* Park a write that could not reach an owner; drained on the owner's
   Down→Up transition, before warming. *)
let hint t member ~fingerprint ~kind body =
  let dropped = Hints.record t.hints ~member ~fingerprint ~kind body in
  Metrics.hint_recorded t.metrics;
  for _ = 1 to dropped do
    Metrics.hint_dropped t.metrics
  done

let is_down t m = Membership.state t.membership m = Some Membership.Down

(* Synchronous write fan-out after a fresh compute: the answering shard
   already holds copy one; push copies to the remaining owners until
   [quorum] copies exist.  A Down owner, or one that refuses the copy,
   gets a hint instead of silence — the recovery drain converges it; a
   missed quorum is counted, not failed — the client has its answer,
   durability is degraded and visible. *)
let replicate t ~tick ~answered_by ~fingerprint analysis =
  let others =
    List.filter (fun m -> m <> answered_by) (owners t fingerprint)
  in
  let needed = t.config.quorum - 1 in
  let acks =
    List.fold_left
      (fun acks m ->
        if is_down t m then begin
          hint t m ~fingerprint ~kind:"analysis" analysis;
          acks
        end
        else if acks >= needed then acks
        else if put_to t ~tick m ~fingerprint analysis then acks + 1
        else begin
          hint t m ~fingerprint ~kind:"analysis" analysis;
          acks
        end)
      0 others
  in
  if acks < needed then Metrics.quorum_failure t.metrics

(* --- request routing -------------------------------------------------- *)

(* Candidate order for a key: its owners as the ring lists them
   (primary, then successors), routable ones first; owners already
   marked Down come last as a desperation measure — a Down shard that
   just restarted may well answer, and a structured error beats none. *)
let candidates t fingerprint =
  let owners = owners t fingerprint in
  let down m = Membership.state t.membership m = Some Membership.Down in
  let live, dead = List.partition (fun m -> not (down m)) owners in
  live @ dead

let ok_from_front ~fingerprint analysis =
  Sink.Obj
    [
      ("ok", Sink.Bool true);
      ("fingerprint", Sink.Str fingerprint);
      ("cached", Sink.Bool true);
      ("analysis", analysis);
    ]

let no_shard_error fingerprint =
  Protocol.error
    (Printf.sprintf "no shard available for fingerprint %s" fingerprint)

(* Forward an analysis request as its original line, never re-encoded,
   so deadline and every other field ride along verbatim.  Failover
   policy: transport failures and [overloaded] move to the next owner;
   [error] and [deadline_exceeded] are deterministic verdicts and are
   returned as-is — every shard would say the same, and the deadline
   belongs to the client, not to the routing. *)
let route_analysis t ~tick ~line ~fingerprint =
  match front_find t fingerprint with
  | Some analysis ->
    Metrics.front_hit t.metrics;
    ok_from_front ~fingerprint analysis
  | None ->
    let key_owners = owners t fingerprint in
    let rec attempt last failed = function
      | [] -> (
        Metrics.unrouted t.metrics;
        match last with
        | Some resp -> resp
        | None -> no_shard_error fingerprint)
      | member :: rest -> (
        Metrics.forward t.metrics;
        match exchange t member line with
        | Error (Client.Io _ | Client.Malformed _ | Client.Closed) ->
          ignore (note_failure t ~tick member);
          if rest <> [] then Metrics.failover t.metrics;
          attempt last (member :: failed) rest
        | Ok resp -> (
          match Protocol.response_code resp with
          | Some "ok" ->
            (match Sink.member "analysis" resp with
            | Some analysis ->
              front_store t fingerprint analysis;
              let fresh =
                match Sink.member "cached" resp with
                | Some (Sink.Bool cached) -> not cached
                | _ -> false
              in
              if fresh then
                replicate t ~tick ~answered_by:member ~fingerprint analysis
              else
                (* Read-repair: a failover read answered from a
                   replica's cache means every owner we passed over is
                   missing or unreachable — park the answer for each so
                   the primary converges the moment it recovers. *)
                List.iter
                  (fun m ->
                    if List.mem m key_owners then begin
                      Metrics.read_repair t.metrics;
                      hint t m ~fingerprint ~kind:"analysis" analysis
                    end)
                  failed
            | None -> ());
            resp
          | Some "overloaded" ->
            if rest <> [] then Metrics.failover t.metrics;
            attempt (Some resp) failed rest
          | _ -> resp))
    in
    attempt None [] (candidates t fingerprint)

(* A [put] arriving at the router is a client-driven write: fan it out
   to every routable owner and demand the quorum ourselves.  An owner
   the write cannot reach — Down, or failing mid-fan-out — gets a hint,
   so even a degraded write converges on recovery. *)
let route_put t ~tick ~fingerprint ~kind body =
  if kind = "analysis" then front_store t fingerprint body;
  let all_owners = owners t fingerprint in
  let live = List.filter (fun m -> not (is_down t m)) all_owners in
  let acks =
    List.fold_left
      (fun acks m ->
        if is_down t m then begin
          hint t m ~fingerprint ~kind body;
          acks
        end
        else if put_to t ~tick ~kind m ~fingerprint body then acks + 1
        else begin
          hint t m ~fingerprint ~kind body;
          acks
        end)
      0 all_owners
  in
  if acks >= min t.config.quorum (max 1 (List.length live)) then
    Protocol.ok_stored ~fingerprint
  else begin
    Metrics.quorum_failure t.metrics;
    Protocol.error
      (Printf.sprintf "quorum not met for %s: %d/%d acks" fingerprint acks
         t.config.quorum)
  end

let members_json t =
  Sink.Obj
    (List.map
       (fun (m, s) -> (m, Sink.Str (Membership.state_to_string s)))
       (Membership.states t.membership))

let front_stats_json t =
  let _, length, capacity = front_snapshot t in
  Sink.Obj [ ("length", Sink.Int length); ("capacity", Sink.Int capacity) ]

let router_stats t =
  Sink.Obj
    [
      ("ok", Sink.Bool true);
      ("router", Metrics.to_json t.metrics);
      ("members", members_json t);
      ("front", front_stats_json t);
      ("hints", Sink.Int (Hints.pending t.hints));
    ]

let router_health t =
  Sink.Obj
    [
      ("ok", Sink.Bool true);
      ("shard", Sink.Str "router");
      ("inflight", Sink.Int (Metrics.inflight t.metrics));
      ("members", members_json t);
      ("cache", front_stats_json t);
      ("hints", Sink.Int (Hints.pending t.hints));
    ]

let handle t ~tick line =
  Metrics.enter t.metrics;
  Fun.protect
    ~finally:(fun () -> Metrics.leave t.metrics)
    (fun () ->
      match Protocol.parse_request line with
      | Error e ->
        Metrics.error t.metrics;
        (Protocol.error e, `Continue)
      | Ok { Protocol.query; _ } -> (
        (* Routing keys are tier- and concept-qualified, so exhaustive,
           certified and correlated answers for the same game live on
           (possibly) different owners and never alias; certified and
           correlated responses carry no ["analysis"] member, so the
           front cache (which stores only that member) naturally
           ignores them. *)
        let mode_key fingerprint mode =
          match mode with
          | Bi_certify.Mode.Auto ->
            (* The router never builds games, so it cannot resolve
               [auto]; route on the certified key (deterministic for
               any replica count) and let the owning shard resolve. *)
            Fingerprint.with_mode fingerprint
              ~mode:(Bi_certify.Mode.cache_tag Bi_certify.Mode.Certified)
          | m -> Fingerprint.with_mode fingerprint ~mode:(Bi_certify.Mode.cache_tag m)
        in
        (* The correlated concepts ignore the solver tier (there is one
           LP path, no exhaustive/certified split), so their routing key
           qualifies the bare fingerprint — matching the shards' own
           cache keys byte for byte. *)
        let routing_key fingerprint ~mode ~concept =
          match concept with
          | Bi_correlated.Concept.Nash -> mode_key fingerprint mode
          | c ->
            Fingerprint.with_concept fingerprint
              ~concept:(Bi_correlated.Concept.cache_tag c)
        in
        match query with
        | Protocol.Analyze { graph; prior; mode; concept } ->
          let fingerprint =
            routing_key (Fingerprint.game graph ~prior) ~mode ~concept
          in
          (route_analysis t ~tick ~line ~fingerprint, `Continue)
        | Protocol.Construction { name; k; mode; concept } -> (
          match Registry.build name k with
          | Error e ->
            Metrics.error t.metrics;
            (Protocol.error e, `Continue)
          | Ok game ->
            let fingerprint =
              routing_key (Fingerprint.of_game game) ~mode ~concept
            in
            (route_analysis t ~tick ~line ~fingerprint, `Continue))
        | Protocol.Put { fingerprint; value } ->
          let kind, body =
            match value with
            | Protocol.Put_analysis analysis ->
              ("analysis", Bi_cache.Codec.analysis_to_json analysis)
            | Protocol.Put_payload body -> ("payload", body)
          in
          (route_put t ~tick ~fingerprint ~kind body, `Continue)
        | Protocol.Digest _ | Protocol.Pull _ ->
          (* Cluster-internal verbs: replica state lives on shards, the
             router holds only an ephemeral front cache.  fsck and the
             repair loop address shards directly. *)
          ( Protocol.error
              "digest/pull are shard verbs; address a shard directly",
            `Continue )
        | Protocol.Stats -> (router_stats t, `Continue)
        | Protocol.Health -> (router_health t, `Continue)
        | Protocol.Shutdown -> (Protocol.ok_shutdown, `Stop)))

(* --- health polling, warming, membership reload ----------------------- *)

(* Push every front-cache entry the member owns: after a recovery or a
   membership change the shard's disk may lag the cluster, and warming
   from the router's own recent answers restores byte-identical warm
   reads without recomputing anything. *)
let warm t ~tick member =
  let entries, _, _ = front_snapshot t in
  List.iter
    (fun (fingerprint, analysis) ->
      if List.mem member (owners t fingerprint) then
        if put_to t ~tick member ~fingerprint analysis then
          Metrics.warmed t.metrics)
    entries

(* Deliver the writes a member missed while unreachable.  Runs on its
   Down→Up transition, before warming: hints are the entries known to
   be missing, warming is opportunistic.  A hint that still cannot be
   delivered goes back in the log for the next recovery. *)
let drain_hints t ~tick member =
  List.iter
    (fun (h : Hints.hint) ->
      if
        put_to t ~tick ~kind:h.Hints.kind member
          ~fingerprint:h.Hints.fingerprint h.Hints.body
      then Metrics.repair t.metrics
      else
        ignore
          (Hints.record t.hints ~member ~fingerprint:h.Hints.fingerprint
             ~kind:h.Hints.kind h.Hints.body))
    (Hints.take t.hints member)

(* Probes always connect afresh, with [probe_timeout_s]: a probe tests
   that the member still accepts connections, and a stuck shard must be
   caught within the probe timeout, not [shard_timeout_s]. *)
let probe t ~tick member =
  Metrics.probe t.metrics;
  let healthy =
    match connect t ~timeout_s:t.config.probe_timeout_s member with
    | Error _ -> None
    | Ok client ->
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          match Client.request client Protocol.health_request with
          | Ok resp -> Some (Protocol.is_ok resp)
          | Error _ -> None)
  in
  match healthy with
  | Some true -> (
    match Membership.note_success t.membership ~now:tick member with
    | `Recovered ->
      Metrics.marked_up t.metrics;
      drain_hints t ~tick member;
      warm t ~tick member
    | `Ok -> ())
  | Some false | None -> (
    if healthy = None then drop_idle t member;
    Metrics.probe_failure t.metrics;
    match note_failure t ~tick member with
    | `Went_down -> Metrics.marked_down t.metrics
    | `Ok -> ())

(* --- anti-entropy ------------------------------------------------------ *)

(* The digest view of one live member, as key→check tables keyed by
   bucket.  [Error] covers transport failure and pre-repair shards that
   reject the verb — both mean "skip this round", never "diverged". *)
let member_rollup t member =
  match request t member (Protocol.digest_request ()) with
  | Error _ -> Error ()
  | Ok resp ->
    if Protocol.is_ok resp then
      Result.map_error (fun _ -> ()) (Protocol.rollup_of resp)
    else Error ()

let member_bucket t member b =
  match request t member (Protocol.digest_request ~bucket:b ()) with
  | Error _ -> Error ()
  | Ok resp ->
    if Protocol.is_ok resp then
      Result.map_error (fun _ -> ()) (Protocol.bucket_keys_of resp)
    else Error ()

(* Repair the keys of one bucket between members [a] and [b]: judge the
   pair's copies with the same divergence rule fsck uses (restricted to
   this pair), pull each divergent key from its authority and push it to
   the lagging side through the ordinary [put] — so repaired entries are
   byte-identical to replicated ones, and last-writer-wins follows the
   ring's owner order. *)
let repair_bucket t ~tick a b bucket =
  match (member_bucket t a bucket, member_bucket t b bucket) with
  | Error (), _ | _, Error () -> ()
  | Ok pa, Ok pb ->
    let table pairs =
      let tbl = Hashtbl.create 16 in
      List.iter (fun (k, c) -> Hashtbl.replace tbl k c) pairs;
      tbl
    in
    let _, divergent =
      Fsck.divergences ~ring:(current_ring t) ~replicas:t.config.replicas
        [ (a, table pa); (b, table pb) ]
    in
    if divergent <> [] then
      Metrics.divergent t.metrics ~keys:(List.length divergent);
    List.iter
      (fun (d : Fsck.divergence) ->
        let targets =
          d.Fsck.missing
          @ List.filter_map
              (fun (n, check) ->
                if
                  n <> d.Fsck.authority
                  && check <> List.assoc d.Fsck.authority d.Fsck.holders
                then Some n
                else None)
              d.Fsck.holders
        in
        if targets <> [] then begin
          match request t d.Fsck.authority (Protocol.pull_request [ d.Fsck.key ]) with
          | Error _ -> ()
          | Ok resp -> (
            match Protocol.entries_of resp with
            | Ok (entry :: _) ->
              List.iter
                (fun target ->
                  if
                    put_to t ~tick ~kind:entry.Bi_cache.Store.kind target
                      ~fingerprint:entry.Bi_cache.Store.key
                      entry.Bi_cache.Store.body
                  then Metrics.repair t.metrics)
                targets
            | Ok [] | Error _ -> ())
        end)
      divergent

(* One low-duty-cycle anti-entropy round: compare the digest rollups of
   one Up owner pair (a rotating cursor covers all adjacent pairs over
   successive rounds) and repair the differing buckets, a bounded number
   per round. *)
let repair_round t ~tick =
  let ups =
    List.filter
      (fun m -> Membership.state t.membership m = Some Membership.Up)
      (Membership.members t.membership)
  in
  let n = List.length ups in
  if n >= 2 then begin
    Metrics.repair_round t.metrics;
    let a = List.nth ups (t.repair_cursor mod n) in
    let b = List.nth ups ((t.repair_cursor + 1) mod n) in
    t.repair_cursor <- t.repair_cursor + 1;
    match (member_rollup t a, member_rollup t b) with
    | Error (), _ | _, Error () -> ()
    | Ok ra, Ok rb ->
      let tbl = Hashtbl.create 64 in
      List.iter (fun (bk, d) -> Hashtbl.replace tbl bk [ d ]) ra;
      List.iter
        (fun (bk, d) ->
          match Hashtbl.find_opt tbl bk with
          | Some ds -> Hashtbl.replace tbl bk (d :: ds)
          | None -> Hashtbl.replace tbl bk [ d ])
        rb;
      let differing =
        Hashtbl.fold
          (fun bk ds acc ->
            match ds with
            | [ d1; d2 ] when d1 = d2 -> acc
            | _ -> bk :: acc)
          tbl []
        |> List.sort compare
      in
      let bounded =
        List.filteri (fun i _ -> i < repair_buckets_per_round) differing
      in
      List.iter (repair_bucket t ~tick a b) bounded
  end

let parse_members s =
  let raw =
    String.split_on_char ','
      (String.map (function '\n' | '\r' | '\t' | ' ' -> ',' | c -> c) s)
    |> List.filter_map (fun m ->
           let m = String.trim m in
           if m = "" then None else Some m)
  in
  (* Dedupe, keeping first-occurrence order: a duplicated member would
     double-weight the ring and count twice toward the quorum — two
     "copies" on one disk.  Noisy, because it is a config bug. *)
  let seen = Hashtbl.create 8 in
  List.filter
    (fun m ->
      if Hashtbl.mem seen m then begin
        Printf.eprintf "router: ignoring duplicate member %s\n%!" m;
        false
      end
      else begin
        Hashtbl.replace seen m ();
        true
      end)
    raw

let reload_members t ~tick =
  match t.members_file with
  | None -> ()
  | Some path -> (
    match
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error e ->
      Printf.eprintf "router: members reload failed: %s\n%!" e
    | content -> (
      let members = parse_members content in
      match validate_members members with
      | Error e -> Printf.eprintf "router: members reload rejected: %s\n%!" e
      | Ok () ->
        let ring = Ring.create ~vnodes:t.config.vnodes members in
        Mutex.lock t.ring_lock;
        t.ring <- ring;
        Mutex.unlock t.ring_lock;
        let departed =
          List.filter
            (fun m -> not (List.mem m members))
            (Membership.members t.membership)
        in
        let added = Membership.set_members t.membership members in
        List.iter (drop_idle t) departed;
        Printf.eprintf "router: members reloaded: %s%s\n%!"
          (String.concat "," members)
          (if added = [] then ""
           else " (new: " ^ String.concat "," added ^ ")");
        (* New members are probed (and warmed) on this same tick. *)
        List.iter (probe t ~tick) added))

let poller t =
  let tick = ref 0 in
  while not (Lineserver.stopping t.ls) do
    incr tick;
    if Atomic.exchange t.reload false then reload_members t ~tick:!tick;
    List.iter (probe t ~tick:!tick) (Membership.due t.membership ~now:!tick);
    if
      t.config.repair_interval_ticks > 0
      && !tick mod t.config.repair_interval_ticks = 0
    then repair_round t ~tick:!tick;
    Thread.delay t.config.probe_interval_s
  done

(* --- lifecycle -------------------------------------------------------- *)

let dump_metrics t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let j =
        Sink.Obj
          [
            ("record", Sink.Str "router_metrics");
            ("router", Metrics.to_json t.metrics);
            ("members", members_json t);
            ("front", front_stats_json t);
          ]
      in
      output_string oc (Sink.to_string j);
      output_char oc '\n')

let handle_conn t oc line =
  (* The poller owns the tick clock; request threads read a coarse
     now-ish tick for failure bookkeeping — exactness is irrelevant,
     only monotonicity matters, and 0 under-runs every schedule. *)
  let response, disposition = handle t ~tick:0 line in
  let delivered =
    try
      output_string oc (Sink.to_string response);
      output_char oc '\n';
      flush oc;
      true
    with Sys_error _ -> false
  in
  match disposition with
  | `Stop -> `Stop
  | `Continue -> if delivered then `Continue else `Close

let run ?on_ready ?metrics_out ?members_file ?hints_path
    ?(config = default_config) ~members listen =
  (match validate_members members with
  | Ok () -> ()
  | Error e -> failwith ("router: " ^ e));
  if config.quorum < 1 then failwith "router: quorum must be >= 1";
  if config.replicas < config.quorum then
    failwith "router: replicas must be >= quorum";
  if config.hint_capacity < 1 then
    failwith "router: hint capacity must be >= 1";
  let ls = Lineserver.create listen in
  let t =
    {
      config;
      metrics = Metrics.create ();
      membership = Membership.create members;
      ring = Ring.create ~vnodes:config.vnodes members;
      ring_lock = Mutex.create ();
      front = Lru.create ~capacity:(max 1 config.front_capacity);
      front_lock = Mutex.create ();
      hints = Hints.create ~capacity:config.hint_capacity ?path:hints_path ();
      ls;
      members_file;
      reload = Atomic.make false;
      repair_cursor = 0;
      idle = Hashtbl.create 8;
      idle_lock = Mutex.create ();
    }
  in
  let previous_hup =
    try
      Some
        (Sys.signal Sys.sighup
           (Sys.Signal_handle (fun _ -> Atomic.set t.reload true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let poller_th = Thread.create poller t in
  Lineserver.run ?on_ready ~handler:(handle_conn t) ls;
  Thread.join poller_th;
  close_idle t;
  (match previous_hup with
  | Some h -> ( try Sys.set_signal Sys.sighup h with Invalid_argument _ | Sys_error _ -> ())
  | None -> ());
  Hints.close t.hints;
  Option.iter (dump_metrics t) metrics_out
