module Sink = Bi_engine.Sink
module Pool = Bi_engine.Pool
module Budget = Bi_engine.Budget
module Service = Bi_cache.Service
module Fingerprint = Bi_cache.Fingerprint
module Bncs = Bi_ncs.Bayesian_ncs
module Registry = Bi_constructions.Registry
module Mode = Bi_certify.Mode
module Solve = Bi_certify.Solve
module Concept = Bi_correlated.Concept
module Correlated = Bi_correlated.Correlated

type listen = Lineserver.listen = Unix_socket of string | Tcp of int

type limits = {
  max_concurrent : int;
  max_queue : int;
  idle_timeout_s : float;
  max_deadline_ms : int;
}

let default_limits =
  { max_concurrent = 8; max_queue = 64; idle_timeout_s = 0.; max_deadline_ms = 0 }

type t = {
  cache : Service.t;
  pool : Pool.t option;
  metrics : Metrics.t;
  limits : limits;
  chaos : Chaos.t option;
  ls : Lineserver.t;
  lock : Mutex.t;  (* guards [inflight] *)
  cond : Condition.t;  (* signalled when an in-flight computation ends *)
  inflight : (string, unit) Hashtbl.t;
  adm_lock : Mutex.t;  (* guards [running] and [queued] *)
  mutable running : int;  (* analyses currently computing *)
  mutable queued : int;  (* leaders waiting for a compute slot *)
}

(* How a request can fail before or during its analysis. *)
type failure =
  | Overloaded of int  (* retry_after_ms hint *)
  | Deadline
  | Msg of string

let chaos_sleep ms = if ms > 0 then Thread.delay (float_of_int ms /. 1000.)

(* --- admission control ------------------------------------------------ *)

let slot_poll_s = 0.002

(* Admission applies to computation leaders only: cache hits, coalesced
   waiters and the control verbs are never shed, so the cache keeps
   answering and operators keep observing even when the solvers are
   saturated.  A leader is shed outright once [max_concurrent] analyses
   are running and [max_queue] more are waiting; otherwise it polls for
   a free slot, bailing out if its deadline passes or the server stops.
   The retry hint grows with the backlog so clients spread out. *)
let try_admit t ~budget =
  Mutex.lock t.adm_lock;
  let limits = t.limits in
  let total = t.running + t.queued in
  if total >= limits.max_concurrent + limits.max_queue then begin
    let backlog = total - limits.max_concurrent + 1 in
    Mutex.unlock t.adm_lock;
    Error (Overloaded (min 2000 (25 * backlog)))
  end
  else begin
    t.queued <- t.queued + 1;
    let rec wait () =
      if t.running < limits.max_concurrent then begin
        t.queued <- t.queued - 1;
        t.running <- t.running + 1;
        Mutex.unlock t.adm_lock;
        Ok ()
      end
      else begin
        Mutex.unlock t.adm_lock;
        let bail =
          if Lineserver.stopping t.ls then Some (Msg "server is shutting down")
          else if Budget.expired budget then Some Deadline
          else None
        in
        match bail with
        | Some f ->
          Mutex.lock t.adm_lock;
          t.queued <- t.queued - 1;
          Mutex.unlock t.adm_lock;
          Error f
        | None ->
          Thread.delay slot_poll_s;
          Mutex.lock t.adm_lock;
          wait ()
      end
    in
    wait ()
  end

let release_slot t =
  Mutex.lock t.adm_lock;
  t.running <- t.running - 1;
  Mutex.unlock t.adm_lock

(* --- request coalescing ---------------------------------------------- *)

(* One leader computes per cache key; duplicates wait on [cond] and
   are answered from cache when the leader lands.  A leader that fails
   broadcasts too, so a waiter re-checks, finds neither a cached value
   nor an in-flight leader, and takes over the computation itself.
   The chaos compute delay runs inside the admission slot, so injected
   latency exercises the load-shedding path like real slow work.

   Generic over {!Service.value} so both solver tiers coalesce through
   the same in-flight table: [decode] projects a cached value of the
   expected shape (tier-qualified keys make a shape clash impossible,
   but a mismatch still reads as a miss rather than a crash), [encode]
   injects a fresh result, and [solve] does the leader's work. *)
let compute (type a) t ~budget ~chaos_delay_ms ~key
    ~(decode : Service.value -> a option) ~(encode : a -> Service.value)
    (solve : unit -> (a, failure) result) =
  Mutex.lock t.lock;
  let rec obtain ~waited =
    match Option.bind (Service.find t.cache key) decode with
    | Some v ->
      if waited then Metrics.coalesce t.metrics else Metrics.hit t.metrics;
      Mutex.unlock t.lock;
      Ok (v, true)
    | None ->
      if Budget.expired budget then begin
        Mutex.unlock t.lock;
        Error Deadline
      end
      else if Hashtbl.mem t.inflight key then begin
        Condition.wait t.cond t.lock;
        obtain ~waited:true
      end
      else begin
        Hashtbl.add t.inflight key ();
        Mutex.unlock t.lock;
        Metrics.miss t.metrics;
        let result =
          match try_admit t ~budget with
          | Error _ as e -> e
          | Ok () ->
            Fun.protect
              ~finally:(fun () -> release_slot t)
              (fun () ->
                chaos_sleep chaos_delay_ms;
                if Budget.expired budget then Error Deadline
                else
                  match solve () with
                  | Ok v ->
                    Service.insert t.cache key (encode v);
                    Ok (v, false)
                  | Error _ as e -> e
                  | exception Budget.Expired -> Error Deadline
                  | exception Invalid_argument msg -> Error (Msg msg)
                  | exception exn -> Error (Msg (Printexc.to_string exn)))
        in
        Mutex.lock t.lock;
        Hashtbl.remove t.inflight key;
        Condition.broadcast t.cond;
        Mutex.unlock t.lock;
        result
      end
  in
  obtain ~waited:false

let analysis t ~budget ~chaos_delay_ms ~fingerprint build =
  compute t ~budget ~chaos_delay_ms ~key:fingerprint
    ~decode:(function Service.Analysis a -> Some a | Service.Payload _ -> None)
    ~encode:(fun a -> Service.Analysis a)
    (fun () ->
      match build () with
      | Error e -> Error (Msg e)
      | Ok game -> Ok (Bncs.analyze ?pool:t.pool ~budget game))

let certified t ~budget ~chaos_delay_ms ~key build =
  compute t ~budget ~chaos_delay_ms ~key
    ~decode:(function Service.Payload j -> Some j | Service.Analysis _ -> None)
    ~encode:(fun j -> Service.Payload j)
    (fun () ->
      match build () with
      | Error e -> Error (Msg e)
      | Ok game ->
        Ok (Solve.to_json (Solve.certify ?pool:t.pool ~budget game)))

(* The correlated concepts cache the same [Payload] shape as the
   certified tier — concept-qualified keys keep the shapes apart. *)
let correlated t ~budget ~chaos_delay_ms ~key ~concept build =
  compute t ~budget ~chaos_delay_ms ~key
    ~decode:(function Service.Payload j -> Some j | Service.Analysis _ -> None)
    ~encode:(fun j -> Service.Payload j)
    (fun () ->
      match build () with
      | Error e -> Error (Msg e)
      | Ok game -> Ok (Correlated.to_json (Correlated.analyze ~budget ~concept game)))

(* --- request handling ------------------------------------------------ *)

let budget_of t deadline_ms =
  match (deadline_ms, t.limits.max_deadline_ms) with
  | None, 0 -> Budget.unlimited
  | Some ms, 0 -> Budget.of_timeout_ms ms
  | None, cap -> Budget.of_timeout_ms cap
  | Some ms, cap -> Budget.of_timeout_ms (min ms cap)

let failure_response t = function
  | Overloaded hint ->
    Metrics.overload t.metrics;
    (Protocol.overloaded ~retry_after_ms:hint, `Continue)
  | Deadline ->
    Metrics.deadline_exceeded t.metrics;
    (Protocol.deadline_exceeded, `Continue)
  | Msg e ->
    Metrics.error t.metrics;
    (Protocol.error e, `Continue)

let analysis_response t ~fingerprint result =
  match result with
  | Ok (a, cached) -> (Protocol.ok_analysis ~fingerprint ~cached a, `Continue)
  | Error f -> failure_response t f

let certified_response t ~fingerprint result =
  match result with
  | Ok (payload, cached) ->
    (Protocol.ok_certified ~fingerprint ~cached payload, `Continue)
  | Error f -> failure_response t f

let correlated_response t ~fingerprint ~concept result =
  match result with
  | Ok (payload, cached) ->
    (Protocol.ok_correlated ~fingerprint ~cached ~concept payload, `Continue)
  | Error f -> failure_response t f

(* Tier dispatch.  The exhaustive tier keys the cache on the bare game
   fingerprint — byte-identical requests and responses to every pre-mode
   deployment — while the certified tier appends its tag, so entries
   never cross tiers.  [Auto] must build the game to count its valid
   profiles; the resolved tier then reuses the built game. *)
let rec handle_tiered t ~budget ~chaos_delay_ms ~fingerprint ~mode build =
  match mode with
  | Mode.Exhaustive ->
    analysis_response t ~fingerprint
      (analysis t ~budget ~chaos_delay_ms ~fingerprint build)
  | Mode.Certified ->
    let key =
      Fingerprint.with_mode fingerprint ~mode:(Mode.cache_tag Mode.Certified)
    in
    certified_response t ~fingerprint:key
      (certified t ~budget ~chaos_delay_ms ~key build)
  | Mode.Auto -> (
    match build () with
    | Error e ->
      Metrics.error t.metrics;
      (Protocol.error e, `Continue)
    | exception Invalid_argument msg ->
      Metrics.error t.metrics;
      (Protocol.error msg, `Continue)
    | Ok game ->
      let mode =
        Mode.resolve ~valid_profiles:(Bncs.valid_profile_count game) Mode.Auto
      in
      handle_tiered t ~budget ~chaos_delay_ms ~fingerprint ~mode (fun () ->
          Ok game))

(* Concept dispatch sits in front of tier dispatch: nash requests flow
   through [handle_tiered] exactly as before (byte-identical responses
   and cache keys), the correlated concepts go to the LP path under a
   concept-qualified key — the solver tier does not apply there. *)
let handle_concepted t ~budget ~chaos_delay_ms ~fingerprint ~mode ~concept
    build =
  match concept with
  | Concept.Nash -> handle_tiered t ~budget ~chaos_delay_ms ~fingerprint ~mode build
  | (Concept.Cce | Concept.Comm) as concept ->
    let key =
      Fingerprint.with_concept fingerprint ~concept:(Concept.cache_tag concept)
    in
    correlated_response t ~fingerprint:key ~concept
      (correlated t ~budget ~chaos_delay_ms ~key ~concept build)

let handle_query t ~budget ~chaos_delay_ms query =
  match query with
  | Protocol.Analyze { graph; prior; mode; concept } ->
    let fingerprint = Fingerprint.game graph ~prior in
    handle_concepted t ~budget ~chaos_delay_ms ~fingerprint ~mode ~concept
      (fun () -> Ok (Bncs.make graph ~prior))
  | Protocol.Construction { name; k; mode; concept } -> (
    match Registry.build name k with
    | Error e ->
      Metrics.error t.metrics;
      (Protocol.error e, `Continue)
    | Ok game ->
      let fingerprint = Fingerprint.of_game game in
      handle_concepted t ~budget ~chaos_delay_ms ~fingerprint ~mode ~concept
        (fun () -> Ok game))
  (* [put] and [health] are cluster-control verbs: like [stats] they are
     never shed and never queue behind solver work, so replication and
     liveness probing keep working on a saturated shard. *)
  | Protocol.Put { fingerprint; value } ->
    chaos_sleep chaos_delay_ms;
    (match value with
    | Protocol.Put_analysis analysis ->
      Service.insert_analysis t.cache fingerprint analysis
    | Protocol.Put_payload body ->
      Service.insert t.cache fingerprint (Service.Payload body));
    (Protocol.ok_stored ~fingerprint, `Continue)
  (* [digest] and [pull] are the repair-path control verbs: cheap reads
     of the resident digest view, never shed, so anti-entropy and fsck
     keep converging replicas even while the solvers are saturated. *)
  | Protocol.Digest { bucket } ->
    chaos_sleep chaos_delay_ms;
    let shard =
      Option.value (Service.stats t.cache).Service.shard ~default:"unnamed"
    in
    (match bucket with
    | None ->
      ( Protocol.ok_digest ~shard ~rollup:(Service.digest_rollup t.cache),
        `Continue )
    | Some b ->
      ( Protocol.ok_bucket ~shard ~bucket:b ~keys:(Service.bucket_keys t.cache b),
        `Continue ))
  | Protocol.Pull { keys } ->
    chaos_sleep chaos_delay_ms;
    let shard =
      Option.value (Service.stats t.cache).Service.shard ~default:"unnamed"
    in
    let entries, missing = Service.pull t.cache keys in
    (Protocol.ok_pulled ~shard ~entries ~missing, `Continue)
  | Protocol.Health ->
    chaos_sleep chaos_delay_ms;
    let stats = Service.stats t.cache in
    let shard = Option.value stats.Service.shard ~default:"unnamed" in
    ( Protocol.ok_health ~shard ~inflight:(Metrics.inflight t.metrics)
        ~cache:(Service.stats_to_json stats),
      `Continue )
  | Protocol.Stats ->
    chaos_sleep chaos_delay_ms;
    ( Protocol.ok_stats
        ~cache:(Service.stats_to_json (Service.stats t.cache))
        ~server:(Metrics.to_json t.metrics),
      `Continue )
  | Protocol.Shutdown ->
    chaos_sleep chaos_delay_ms;
    (Protocol.ok_shutdown, `Stop)

let handle_line t ~chaos_delay_ms line =
  Metrics.request t.metrics;
  Metrics.enter t.metrics;
  let t0 = Unix.gettimeofday () in
  let response, disposition =
    match Protocol.parse_request line with
    | Error e ->
      Metrics.error t.metrics;
      (Protocol.error e, `Continue)
    | Ok { Protocol.query; deadline_ms } -> (
      let budget = budget_of t deadline_ms in
      match handle_query t ~budget ~chaos_delay_ms query with
      | r -> r
      | exception Budget.Expired ->
        Metrics.deadline_exceeded t.metrics;
        (Protocol.deadline_exceeded, `Continue)
      | exception exn ->
        Metrics.error t.metrics;
        (Protocol.error (Printexc.to_string exn), `Continue))
  in
  Metrics.leave t.metrics ~seconds:(Unix.gettimeofday () -. t0);
  (response, disposition)

(* One protocol exchange, including the chaos transport decision: a
   dropped or truncated response leaves the client with wreckage, so
   the connection is closed rather than left desynchronized. *)
let respond t oc ~action line =
  if Chaos.faulty action then Metrics.fault_injected t.metrics;
  let response, disposition =
    handle_line t ~chaos_delay_ms:action.Chaos.delay_ms line
  in
  let alive =
    let s = Sink.to_string response in
    match action.Chaos.transport with
    | `Drop -> false
    | `Truncate ->
      (* A torn write: half the line, no newline, then hang up —
         the same wreckage a crash mid-response leaves. *)
      (try
         output_string oc (String.sub s 0 (String.length s / 2));
         flush oc
       with Sys_error _ -> ());
      false
    | `Deliver -> (
      try
        output_string oc s;
        output_char oc '\n';
        flush oc;
        true
      with Sys_error _ -> false)
  in
  match disposition with
  | `Stop -> `Stop
  | `Continue -> if alive then `Continue else `Close

(* An open partition window hangs up unanswered, so a long-lived
   connection sees the partition just as a new one does on accept. *)
let handle_conn_line t oc line =
  match t.chaos with
  | None -> respond t oc ~action:Chaos.deliver line
  | Some c when Chaos.partition_open c ->
    Metrics.fault_injected t.metrics;
    `Close
  | Some c -> respond t oc ~action:(Chaos.response_action c) line

(* --- lifecycle ------------------------------------------------------- *)

let dump_metrics t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let j =
        Sink.Obj
          [
            ("record", Sink.Str "serve_metrics");
            ("server", Metrics.to_json t.metrics);
            ("cache", Service.stats_to_json (Service.stats t.cache));
          ]
      in
      output_string oc (Sink.to_string j);
      output_char oc '\n')

let run ?pool ?metrics_out ?on_ready ?(limits = default_limits) ?chaos ~cache
    listen =
  let metrics = Metrics.create () in
  let ls =
    Lineserver.create ~idle_timeout_s:limits.idle_timeout_s
      ~on_idle_close:(fun () -> Metrics.idle_close metrics)
      listen
  in
  let t =
    {
      cache;
      pool;
      metrics;
      limits;
      chaos;
      ls;
      lock = Mutex.create ();
      cond = Condition.create ();
      inflight = Hashtbl.create 16;
      adm_lock = Mutex.create ();
      running = 0;
      queued = 0;
    }
  in
  let on_accept () =
    match chaos with
    | None -> `Proceed
    | Some c -> (
      match Chaos.connection_action c with
      | `Proceed -> `Proceed
      | (`Refuse | `Stall _) as fault ->
        Metrics.fault_injected t.metrics;
        fault)
  in
  Lineserver.run ?on_ready ~on_accept ~handler:(handle_conn_line t) ls;
  Option.iter (dump_metrics t) metrics_out
