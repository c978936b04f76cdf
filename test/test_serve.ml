(* The analysis server: protocol parsing (including fuzzed garbage),
   metrics accounting, and end-to-end exercises over a real Unix-domain
   socket — duplicate request answered from cache, inline analyze,
   error paths, shutdown, restart answering from the persisted store,
   deadlines, load shedding, idle timeouts, client reconnect, and the
   listener's refusal to clobber a live socket. *)

open Bi_num
module Graph = Bi_graph.Graph
module Dist = Bi_prob.Dist
module Sink = Bi_engine.Sink
module Codec = Bi_cache.Codec
module Service = Bi_cache.Service
module Protocol = Bi_serve.Protocol
module Metrics = Bi_serve.Metrics
module Server = Bi_serve.Server
module Client = Bi_serve.Client
module Chaos = Bi_serve.Chaos
module Lineserver = Bi_serve.Lineserver
module Store = Bi_cache.Store

(* --- protocol --------------------------------------------------------- *)

let test_parse_requests () =
  (match Protocol.parse_request {|{"op":"construction","name":"diamond","k":2}|} with
  | Ok
      {
        Protocol.query =
          Protocol.Construction
            {
              name = "diamond";
              k = 2;
              mode = Bi_certify.Mode.Exhaustive;
              concept = Bi_correlated.Concept.Nash;
            };
        deadline_ms = None;
      } ->
    ()
  | _ -> Alcotest.fail "construction request");
  (match Protocol.parse_request {|{"op":"construction","name":"affine"}|} with
  | Ok { Protocol.query = Protocol.Construction { name = "affine"; k; _ }; _ }
    ->
    Alcotest.(check int) "default k" Protocol.default_k k
  | _ -> Alcotest.fail "construction default k");
  (match Protocol.parse_request {|{"op":"stats"}|} with
  | Ok { Protocol.query = Protocol.Stats; deadline_ms = None } -> ()
  | _ -> Alcotest.fail "stats request");
  (match Protocol.parse_request {|{"op":"shutdown"}|} with
  | Ok { Protocol.query = Protocol.Shutdown; _ } -> ()
  | _ -> Alcotest.fail "shutdown request");
  (match Protocol.parse_request {|{"op":"stats","deadline_ms":250}|} with
  | Ok { Protocol.query = Protocol.Stats; deadline_ms = Some 250 } -> ()
  | _ -> Alcotest.fail "deadline_ms carried through");
  let graph = Graph.make Undirected ~n:2 [ (0, 1, Rat.one) ] in
  let prior = Dist.uniform [ [| (0, 1) |] ] in
  let line =
    Sink.to_string (Protocol.analyze_request ~deadline_ms:40 graph ~prior)
  in
  (match Protocol.parse_request line with
  | Ok
      {
        Protocol.query = Protocol.Analyze { graph = graph'; prior = prior'; _ };
        deadline_ms;
      } ->
    Alcotest.(check (option int)) "deadline round-trips" (Some 40) deadline_ms;
    Alcotest.(check string) "analyze round-trips the game"
      (Bi_cache.Fingerprint.game graph ~prior)
      (Bi_cache.Fingerprint.game graph' ~prior:prior')
  | _ -> Alcotest.fail "analyze request");
  List.iter
    (fun bad ->
      match Protocol.parse_request bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" bad)
    [
      "not json"; {|{"op":"frobnicate"}|}; {|{"noop":1}|};
      {|{"op":"analyze"}|}; {|{"op":"construction","k":3}|};
      {|{"op":"construction","name":"diamond","k":"big"}|};
      {|{"op":"stats","deadline_ms":0}|};
      {|{"op":"stats","deadline_ms":-5}|};
      {|{"op":"stats","deadline_ms":"soon"}|};
      (* k is validated at parse time: 0, negative, or past max_k must
         be structured errors, not deep solver failures *)
      {|{"op":"construction","name":"diamond","k":0}|};
      {|{"op":"construction","name":"diamond","k":-3}|};
      (Printf.sprintf {|{"op":"construction","name":"diamond","k":%d}|}
         (Protocol.max_k + 1));
      (* put needs a non-empty fingerprint and a decodable analysis *)
      {|{"op":"put","fingerprint":"abc"}|};
      {|{"op":"put","analysis":{}}|};
      {|{"op":"put","fingerprint":"","analysis":{}}|};
      {|{"op":"put","fingerprint":"abc","analysis":{"bogus":1}}|};
    ];
  (* the k bounds themselves are accepted *)
  (match Protocol.parse_request {|{"op":"construction","name":"diamond","k":1}|} with
  | Ok { Protocol.query = Protocol.Construction { k = 1; _ }; _ } -> ()
  | _ -> Alcotest.fail "k = 1 rejected");
  (match
     Protocol.parse_request
       (Printf.sprintf {|{"op":"construction","name":"diamond","k":%d}|}
          Protocol.max_k)
   with
  | Ok { Protocol.query = Protocol.Construction { k; _ }; _ } ->
    Alcotest.(check int) "k = max_k accepted" Protocol.max_k k
  | _ -> Alcotest.fail "k = max_k rejected");
  (* health parses like the other control verbs *)
  match Protocol.parse_request {|{"op":"health"}|} with
  | Ok { Protocol.query = Protocol.Health; _ } -> ()
  | _ -> Alcotest.fail "health request"

let test_response_codes () =
  Alcotest.(check (option string)) "ok" (Some "ok")
    (Protocol.response_code Protocol.ok_shutdown);
  Alcotest.(check (option string)) "error" (Some "error")
    (Protocol.response_code (Protocol.error "boom"));
  let shed = Protocol.overloaded ~retry_after_ms:40 in
  Alcotest.(check (option string)) "overloaded" (Some "overloaded")
    (Protocol.response_code shed);
  Alcotest.(check (option int)) "retry hint" (Some 40)
    (Protocol.retry_after_ms shed);
  Alcotest.(check (option string)) "deadline_exceeded"
    (Some "deadline_exceeded")
    (Protocol.response_code Protocol.deadline_exceeded);
  Alcotest.(check (option string)) "not a response" None
    (Protocol.response_code (Sink.Obj [ ("x", Sink.Int 1) ]))

(* The solver-tier field: builders round-trip every tier, an absent
   field is the exhaustive tier (so pre-mode clients and servers agree),
   a default-tier request is byte-identical to a pre-mode request, and
   tier-qualified cache keys leave exhaustive fingerprints untouched. *)
let test_mode_round_trip () =
  let module Mode = Bi_certify.Mode in
  let tiers = [ Mode.Exhaustive; Mode.Certified; Mode.Auto ] in
  List.iter
    (fun mode ->
      match
        Protocol.parse_request
          (Sink.to_string
             (Protocol.construction_request ~mode ~name:"affine" ~k:3 ()))
      with
      | Ok { Protocol.query = Protocol.Construction { mode = m; _ }; _ } ->
        Alcotest.(check string) "construction mode round-trips"
          (Mode.to_string mode) (Mode.to_string m)
      | _ -> Alcotest.fail "construction request with mode")
    tiers;
  let graph = Graph.make Undirected ~n:2 [ (0, 1, Rat.one) ] in
  let prior = Dist.uniform [ [| (0, 1) |] ] in
  List.iter
    (fun mode ->
      match
        Protocol.parse_request
          (Sink.to_string (Protocol.analyze_request ~mode graph ~prior))
      with
      | Ok { Protocol.query = Protocol.Analyze { mode = m; _ }; _ } ->
        Alcotest.(check string) "analyze mode round-trips"
          (Mode.to_string mode) (Mode.to_string m)
      | _ -> Alcotest.fail "analyze request with mode")
    tiers;
  (match
     Protocol.parse_request {|{"op":"construction","name":"affine","k":2}|}
   with
  | Ok
      {
        Protocol.query = Protocol.Construction { mode = Mode.Exhaustive; _ };
        _;
      } ->
    ()
  | _ -> Alcotest.fail "absent mode must default to the exhaustive tier");
  Alcotest.(check string) "default-tier request is byte-identical"
    (Sink.to_string (Protocol.construction_request ~name:"affine" ~k:2 ()))
    (Sink.to_string
       (Protocol.construction_request ~mode:Mode.Exhaustive ~name:"affine"
          ~k:2 ()));
  Alcotest.(check bool) "default-tier request carries no mode member" true
    (Sink.member "mode" (Protocol.construction_request ~name:"affine" ~k:2 ())
    = None);
  (match
     Protocol.parse_request
       {|{"op":"construction","name":"affine","mode":"fast"}|}
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tier must be a parse error");
  (match
     Protocol.parse_request {|{"op":"construction","name":"affine","mode":7}|}
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-string mode must be a parse error");
  Alcotest.(check string) "empty tag keeps the bare fingerprint" "abc"
    (Bi_cache.Fingerprint.with_mode "abc" ~mode:"");
  Alcotest.(check string) "exhaustive tag keeps the bare fingerprint" "abc"
    (Bi_cache.Fingerprint.with_mode "abc" ~mode:"exhaustive");
  Alcotest.(check string) "certified tier is suffixed" "abc+certified"
    (Bi_cache.Fingerprint.with_mode "abc" ~mode:"certified")

(* The solution-concept field mirrors the tier field: builders
   round-trip every concept, an absent field is nash (pre-correlated
   clients and servers agree), a default-concept request is
   byte-identical to a pre-correlated request, and concept-qualified
   cache keys leave nash fingerprints untouched. *)
let test_concept_round_trip () =
  let module Concept = Bi_correlated.Concept in
  let concepts = [ Concept.Nash; Concept.Cce; Concept.Comm ] in
  List.iter
    (fun concept ->
      match
        Protocol.parse_request
          (Sink.to_string
             (Protocol.construction_request ~concept ~name:"affine" ~k:3 ()))
      with
      | Ok { Protocol.query = Protocol.Construction { concept = c; _ }; _ } ->
        Alcotest.(check string) "construction concept round-trips"
          (Concept.to_string concept) (Concept.to_string c)
      | _ -> Alcotest.fail "construction request with concept")
    concepts;
  let graph = Graph.make Undirected ~n:2 [ (0, 1, Rat.one) ] in
  let prior = Dist.uniform [ [| (0, 1) |] ] in
  List.iter
    (fun concept ->
      match
        Protocol.parse_request
          (Sink.to_string (Protocol.analyze_request ~concept graph ~prior))
      with
      | Ok { Protocol.query = Protocol.Analyze { concept = c; _ }; _ } ->
        Alcotest.(check string) "analyze concept round-trips"
          (Concept.to_string concept) (Concept.to_string c)
      | _ -> Alcotest.fail "analyze request with concept")
    concepts;
  (match
     Protocol.parse_request {|{"op":"construction","name":"affine","k":2}|}
   with
  | Ok
      { Protocol.query = Protocol.Construction { concept = Concept.Nash; _ }; _ }
    ->
    ()
  | _ -> Alcotest.fail "absent concept must default to nash");
  Alcotest.(check string) "default-concept request is byte-identical"
    (Sink.to_string (Protocol.construction_request ~name:"affine" ~k:2 ()))
    (Sink.to_string
       (Protocol.construction_request ~concept:Concept.Nash ~name:"affine"
          ~k:2 ()));
  Alcotest.(check bool) "default-concept request carries no concept member"
    true
    (Sink.member "concept"
       (Protocol.construction_request ~name:"affine" ~k:2 ())
    = None);
  (match
     Protocol.parse_request
       {|{"op":"construction","name":"affine","concept":"mixed"}|}
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown concept must be a parse error");
  (match
     Protocol.parse_request
       {|{"op":"construction","name":"affine","concept":7}|}
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-string concept must be a parse error");
  Alcotest.(check string) "empty tag keeps the bare fingerprint" "abc"
    (Bi_cache.Fingerprint.with_concept "abc" ~concept:"");
  Alcotest.(check string) "nash tag keeps the bare fingerprint" "abc"
    (Bi_cache.Fingerprint.with_concept "abc" ~concept:"nash");
  Alcotest.(check string) "cce concept is suffixed" "abc+cce"
    (Bi_cache.Fingerprint.with_concept "abc" ~concept:"cce");
  Alcotest.(check string) "comm concept is suffixed" "abc+comm"
    (Bi_cache.Fingerprint.with_concept "abc" ~concept:"comm")

(* parse_request must be total: any byte salad gets Ok or Error, never
   an exception (a [Stack_overflow] here would kill a server thread). *)
let fuzz_parse_total =
  QCheck2.Test.make ~name:"parse_request is total on garbage" ~count:500
    QCheck2.Gen.(string_size ~gen:(char_range '\t' '~') (int_range 0 300))
    (fun s ->
      match Protocol.parse_request s with Ok _ | Error _ -> true)

let test_parse_hostile_inputs () =
  let deep n = String.make n '[' ^ String.make n ']' in
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "accepted hostile input")
    [
      (* nesting beyond the parser's depth cap must be a parse error,
         not a stack overflow *)
      String.make 100_000 '[';
      deep 600;
      {|{"op":"analyze","game":|} ^ deep 5_000 ^ "}";
      (* oversized flat line *)
      String.make 2_000_000 'a';
      String.concat "" (List.init 513 (fun _ -> {|{"op":|}));
    ];
  (* nesting below the cap still parses *)
  match Protocol.parse_request ({|{"op":"stats","pad":|} ^ deep 100 ^ "}") with
  | Ok { Protocol.query = Protocol.Stats; _ } -> ()
  | _ -> Alcotest.fail "moderate nesting rejected"

let test_metrics_accounting () =
  let m = Metrics.create () in
  Metrics.request m;
  Metrics.enter m;
  Metrics.enter m;
  Metrics.hit m;
  Metrics.miss m;
  Metrics.coalesce m;
  Metrics.leave m ~seconds:0.000003;
  Metrics.leave m ~seconds:0.1;
  Metrics.error m;
  Metrics.overload m;
  Metrics.deadline_exceeded m;
  Metrics.idle_close m;
  Metrics.fault_injected m;
  Metrics.fault_injected m;
  let j = Metrics.to_json m in
  let get k = match Sink.member k j with Some (Sink.Int n) -> n | _ -> -1 in
  Alcotest.(check int) "requests" 1 (get "requests");
  Alcotest.(check int) "errors" 1 (get "errors");
  Alcotest.(check int) "hits include coalesced" 2 (get "hits");
  Alcotest.(check int) "misses" 1 (get "misses");
  Alcotest.(check int) "coalesced" 1 (get "coalesced");
  Alcotest.(check int) "overloaded" 1 (get "overloaded");
  Alcotest.(check int) "deadline_exceeded" 1 (get "deadline_exceeded");
  Alcotest.(check int) "idle_closed" 1 (get "idle_closed");
  Alcotest.(check int) "faults_injected" 2 (get "faults_injected");
  Alcotest.(check int) "gauge back to zero" 0 (get "queue_depth");
  Alcotest.(check int) "high-water mark" 2 (get "max_queue_depth");
  match Sink.member "latency_log2_us" j with
  | Some (Sink.List buckets) ->
    let count =
      List.fold_left
        (fun acc b ->
          match Sink.member "count" b with Some (Sink.Int c) -> acc + c | _ -> acc)
        0 buckets
    in
    Alcotest.(check int) "both latencies bucketed" 2 count
  | _ -> Alcotest.fail "histogram missing"

(* --- retry backoff laws ----------------------------------------------- *)

(* Without a hint, every wait lies in [1, max_delay_ms] for any seed,
   position and attempt — the schedule can never stall or overshoot. *)
let backoff_within_bounds =
  QCheck2.Test.make ~name:"backoff waits lie in [1, max_delay_ms]" ~count:500
    QCheck2.Gen.(
      tup4 (int_range 1 5000) (int_range 1 5000) int (int_range 0 62))
    (fun (base, cap, seed, attempt) ->
      let w =
        Client.backoff_wait_ms ~base_delay_ms:base ~max_delay_ms:cap ~seed
          ~wait_index:attempt ~attempt ~hint_ms:None
      in
      w >= 1 && w <= max 1 cap)

(* The server's retry_after_ms hint is a floor: the client never knocks
   again sooner than the server asked, even past the backoff cap. *)
let backoff_hint_floor =
  QCheck2.Test.make ~name:"retry_after_ms hint is a floor" ~count:500
    QCheck2.Gen.(tup3 int (int_range 0 30) (int_range 0 10_000))
    (fun (seed, attempt, hint) ->
      let w =
        Client.backoff_wait_ms ~base_delay_ms:25 ~max_delay_ms:2000 ~seed
          ~wait_index:attempt ~attempt ~hint_ms:(Some hint)
      in
      w >= hint && w >= 1)

(* Distinct seeds must produce distinct jitter sequences — the whole
   point of deriving per-connection seeds is that a fleet of clients
   does not retry in lockstep after losing the same server. *)
let backoff_seed_distinct =
  QCheck2.Test.make ~name:"distinct seeds give distinct jitter sequences"
    ~count:200
    QCheck2.Gen.(tup2 int int)
    (fun (s1, s2) ->
      QCheck2.assume (s1 <> s2);
      let sequence seed =
        List.init 16 (fun i ->
            Client.backoff_wait_ms ~base_delay_ms:1000
              ~max_delay_ms:1_000_000 ~seed ~wait_index:i ~attempt:10
              ~hint_ms:None)
      in
      sequence s1 <> sequence s2)

(* Same seed, same positions: the schedule is reproducible, which is
   what tests that pass an explicit seed rely on. *)
let backoff_deterministic =
  QCheck2.Test.make ~name:"backoff is deterministic per seed" ~count:200
    QCheck2.Gen.(tup2 int (int_range 0 30))
    (fun (seed, i) ->
      let once () =
        Client.backoff_wait_ms ~base_delay_ms:25 ~max_delay_ms:2000 ~seed
          ~wait_index:i ~attempt:i ~hint_ms:None
      in
      once () = once ())

(* --- chaos configuration ---------------------------------------------- *)

let test_chaos_parse () =
  (match Chaos.parse "seed=3,delay_p=0.25,delay_ms=40,drop_p=0.1" with
  | Ok cfg ->
    Alcotest.(check int) "seed" 3 cfg.Chaos.seed;
    Alcotest.(check (float 1e-9)) "delay_p" 0.25 cfg.Chaos.delay_p;
    Alcotest.(check int) "delay_ms" 40 cfg.Chaos.delay_ms;
    Alcotest.(check (float 1e-9)) "drop_p" 0.1 cfg.Chaos.drop_p;
    Alcotest.(check bool) "enabled" true (Chaos.is_enabled cfg)
  | Error e -> Alcotest.fail e);
  (match Chaos.parse "" with
  | Ok cfg -> Alcotest.(check bool) "empty = disabled" false (Chaos.is_enabled cfg)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Chaos.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" bad)
    [ "delay_p=2"; "drop_p=x"; "frob=1"; "delay_ms"; "truncate_p=-0.1" ];
  (* the decision stream is deterministic in (seed, counter) *)
  Alcotest.(check (float 0.)) "stream reproducible"
    (Chaos.unit_float ~seed:7 ~counter:42)
    (Chaos.unit_float ~seed:7 ~counter:42)

(* --- end-to-end over a Unix socket ------------------------------------ *)

let with_server ?store_path ?limits ?chaos ?shard f =
  let dir = Filename.temp_file "bi_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "bi.sock" in
  let metrics_out = Filename.concat dir "metrics.json" in
  let cache = Service.create ?store_path ?shard () in
  let ready = Mutex.create () and readied = Condition.create () in
  let is_ready = ref false in
  let server =
    Thread.create
      (fun () ->
        Server.run ~metrics_out ?limits ?chaos
          ~on_ready:(fun () ->
            Mutex.lock ready;
            is_ready := true;
            Condition.signal readied;
            Mutex.unlock ready)
          ~cache (Server.Unix_socket socket))
      ()
  in
  Mutex.lock ready;
  while not !is_ready do
    Condition.wait readied ready
  done;
  Mutex.unlock ready;
  Fun.protect
    ~finally:(fun () ->
      (* Idempotent: the test body normally already shut the server down. *)
      (try
         let c = Client.connect_unix socket in
         ignore (Client.request c Protocol.shutdown_request);
         Client.close c
       with Unix.Unix_error _ -> ());
      Thread.join server;
      Service.close cache)
    (fun () -> f ~socket ~metrics_out)

let get_bool key j =
  match Sink.member key j with Some (Sink.Bool b) -> Some b | _ -> None

let request_ok client req =
  match Client.request client req with
  | Error f -> Alcotest.fail (Client.failure_to_string f)
  | Ok resp ->
    Alcotest.(check bool) "response ok" true (Protocol.is_ok resp);
    resp

let test_end_to_end () =
  let store_path = Filename.temp_file "bi_serve_store" ".jsonl" in
  Sys.remove store_path;
  with_server ~store_path (fun ~socket ~metrics_out:_ ->
      (* Two clients, same construction: the second answer must come
         from the cache with an identical analysis. *)
      let c1 = Client.connect_unix socket in
      let c2 = Client.connect_unix socket in
      let req = Protocol.construction_request ~name:"gworst-bliss" ~k:3 () in
      let r1 = request_ok c1 req in
      let r2 = request_ok c2 req in
      Alcotest.(check (option bool)) "first computes" (Some false)
        (get_bool "cached" r1);
      Alcotest.(check (option bool)) "duplicate served from cache" (Some true)
        (get_bool "cached" r2);
      Alcotest.(check string) "identical analysis"
        (Sink.to_string (Option.get (Sink.member "analysis" r1)))
        (Sink.to_string (Option.get (Sink.member "analysis" r2)));
      (* An inline game analyzed through the same cache. *)
      let graph = Graph.make Undirected ~n:2 [ (0, 1, Rat.one) ] in
      let prior = Dist.uniform [ [| (0, 1) |] ] in
      let r3 = request_ok c1 (Protocol.analyze_request graph ~prior) in
      (match Sink.member "analysis" r3 with
      | Some a -> (
        match Result.bind (Ok a) Codec.analysis_of_json with
        | Ok a ->
          Alcotest.(check bool) "opt_p of the one-edge game" true
            (Extended.equal a.Bi_ncs.Bayesian_ncs.report.Bi_bayes.Measures.opt_p
               (Extended.of_int 1))
        | Error e -> Alcotest.fail e)
      | None -> Alcotest.fail "analysis missing");
      (* Unknown construction and protocol errors are reported, not fatal. *)
      (match
         Client.request c2 (Protocol.construction_request ~name:"nope" ~k:1 ())
       with
      | Ok resp -> Alcotest.(check bool) "error response" false (Protocol.is_ok resp)
      | Error f -> Alcotest.fail (Client.failure_to_string f));
      (* Stats must show the duplicate as a hit. *)
      let stats = request_ok c1 Protocol.stats_request in
      let hits =
        match
          Option.bind (Sink.member "server" stats) (Sink.member "hits")
        with
        | Some (Sink.Int n) -> n
        | _ -> -1
      in
      Alcotest.(check bool) "hit counter >= 1" true (hits >= 1);
      Client.close c2;
      (* Graceful shutdown dumps metrics. *)
      let bye = request_ok c1 Protocol.shutdown_request in
      Alcotest.(check (option bool)) "stopping" (Some true)
        (get_bool "stopping" bye);
      Client.close c1);
  Alcotest.(check bool) "store persisted" true (Sys.file_exists store_path);
  (* A new server over the same store answers the same construction from
     the replayed cache on its very first request. *)
  with_server ~store_path (fun ~socket ~metrics_out:_ ->
      let c = Client.connect_unix socket in
      let r =
        request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:3 ())
      in
      Alcotest.(check (option bool)) "first request already cached" (Some true)
        (get_bool "cached" r);
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c);
  Sys.remove store_path

(* Health names the shard and exposes load; put inserts an analysis
   that later construction requests answer byte-identically — the two
   verbs the router builds its membership and replication on. *)
(* The certified tier over the wire: first answer computes, the repeat
   is served from cache under the tier-qualified fingerprint, the
   response carries the bracket payload and no ["analysis"] member, and
   the exhaustive tier for the same game is untouched. *)
let test_certified_tier () =
  let store_path = Filename.temp_file "bi_serve_cert" ".jsonl" in
  Sys.remove store_path;
  with_server ~store_path (fun ~socket ~metrics_out:_ ->
      let c = Client.connect_unix socket in
      let req =
        Protocol.construction_request ~mode:Bi_certify.Mode.Certified
          ~name:"gworst-bliss" ~k:3 ()
      in
      let r1 = request_ok c req in
      let r2 = request_ok c req in
      Alcotest.(check (option bool)) "first computes" (Some false)
        (get_bool "cached" r1);
      Alcotest.(check (option bool)) "repeat served from cache" (Some true)
        (get_bool "cached" r2);
      Alcotest.(check bool) "bracket payload present" true
        (Sink.member "certified" r1 <> None);
      Alcotest.(check bool) "no exhaustive analysis member" true
        (Sink.member "analysis" r1 = None);
      (match Sink.member "fingerprint" r1 with
      | Some (Sink.Str fp) ->
        Alcotest.(check bool) "tier-qualified fingerprint" true
          (Filename.check_suffix fp "+certified")
      | _ -> Alcotest.fail "fingerprint missing");
      let r3 =
        request_ok c
          (Protocol.construction_request ~name:"gworst-bliss" ~k:3 ())
      in
      Alcotest.(check (option bool)) "exhaustive tier computes fresh"
        (Some false) (get_bool "cached" r3);
      Alcotest.(check bool) "exhaustive answer has its analysis" true
        (Sink.member "analysis" r3 <> None);
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

(* A correlated concept over the wire: first answer computes the LP
   report, the repeat is served from cache under the concept-qualified
   fingerprint, the response carries the ["correlated"] payload (tagged
   with its concept) and no ["analysis"] member, and the nash default
   for the same game stays byte-compatible: bare fingerprint, no
   ["concept"] member. *)
let test_correlated_concept () =
  let store_path = Filename.temp_file "bi_serve_corr" ".jsonl" in
  Sys.remove store_path;
  with_server ~store_path (fun ~socket ~metrics_out:_ ->
      let c = Client.connect_unix socket in
      let req =
        Protocol.construction_request ~concept:Bi_correlated.Concept.Cce
          ~name:"gworst-bliss" ~k:2 ()
      in
      let r1 = request_ok c req in
      let r2 = request_ok c req in
      Alcotest.(check (option bool)) "first computes" (Some false)
        (get_bool "cached" r1);
      Alcotest.(check (option bool)) "repeat served from cache" (Some true)
        (get_bool "cached" r2);
      Alcotest.(check bool) "correlated payload present" true
        (Sink.member "correlated" r1 <> None);
      Alcotest.(check bool) "no exhaustive analysis member" true
        (Sink.member "analysis" r1 = None);
      (match Sink.member "concept" r1 with
      | Some (Sink.Str "cce") -> ()
      | _ -> Alcotest.fail "response must name its concept");
      (match Sink.member "fingerprint" r1 with
      | Some (Sink.Str fp) ->
        Alcotest.(check bool) "concept-qualified fingerprint" true
          (Filename.check_suffix fp "+cce")
      | _ -> Alcotest.fail "fingerprint missing");
      (* the LP payload carries the six quantities with certificates *)
      (match Sink.member "correlated" r1 with
      | Some payload ->
        List.iter
          (fun key ->
            Alcotest.(check bool) (key ^ " present") true
              (Sink.member key payload <> None))
          [ "best"; "worst"; "pub_best"; "pub_worst"; "certificates" ]
      | None -> ());
      (* the nash default for the same game is untouched: fresh compute,
         bare fingerprint, analysis member, no concept member *)
      let r3 =
        request_ok c
          (Protocol.construction_request ~name:"gworst-bliss" ~k:2 ())
      in
      Alcotest.(check (option bool)) "nash computes fresh" (Some false)
        (get_bool "cached" r3);
      Alcotest.(check bool) "nash answer has its analysis" true
        (Sink.member "analysis" r3 <> None);
      Alcotest.(check bool) "nash answer has no concept member" true
        (Sink.member "concept" r3 = None);
      (match Sink.member "fingerprint" r3 with
      | Some (Sink.Str fp) ->
        Alcotest.(check bool) "nash fingerprint is unqualified" false
          (String.contains fp '+')
      | _ -> Alcotest.fail "fingerprint missing");
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

let test_health_and_put () =
  let captured = ref None in
  with_server ~shard:"shard-a" (fun ~socket ~metrics_out:_ ->
      let c = Client.connect_unix socket in
      let h = request_ok c Protocol.health_request in
      Alcotest.(check (option string))
        "health names the shard" (Some "shard-a") (Protocol.shard_of h);
      (match Sink.member "inflight" h with
      | Some (Sink.Int n) ->
        Alcotest.(check bool) "inflight counts this request" true (n >= 1)
      | _ -> Alcotest.fail "inflight missing");
      (match Sink.member "cache" h with
      | Some (Sink.Obj _) -> ()
      | _ -> Alcotest.fail "cache stats missing");
      let r =
        request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:2 ())
      in
      let fp =
        match Sink.member "fingerprint" r with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      captured := Some (fp, Option.get (Sink.member "analysis" r));
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c);
  let fp, analysis = Option.get !captured in
  (* A cold server warmed over the wire answers from cache, byte for
     byte what the original shard computed. *)
  with_server (fun ~socket ~metrics_out:_ ->
      let c = Client.connect_unix socket in
      let stored = request_ok c (Protocol.put_request ~fingerprint:fp analysis) in
      Alcotest.(check (option bool)) "stored" (Some true)
        (get_bool "stored" stored);
      let r =
        request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:2 ())
      in
      Alcotest.(check (option bool)) "answered from the pushed copy"
        (Some true) (get_bool "cached" r);
      Alcotest.(check string) "byte-identical analysis"
        (Sink.to_string analysis)
        (Sink.to_string (Option.get (Sink.member "analysis" r)));
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

let test_metrics_dump () =
  with_server (fun ~socket ~metrics_out ->
      let c = Client.connect_unix socket in
      ignore (request_ok c (Protocol.construction_request ~name:"gworst-curse" ~k:3 ()));
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c;
      (* run returns after the dump; wait for the server thread via the
         with_server finally, then check from there.  The file is
         written before [Server.run] returns, so after the joined
         shutdown it must parse. *)
      let rec wait tries =
        if Sys.file_exists metrics_out then ()
        else if tries = 0 then Alcotest.fail "metrics dump missing"
        else begin
          Thread.delay 0.05;
          wait (tries - 1)
        end
      in
      wait 100;
      let ic = open_in metrics_out in
      let line = input_line ic in
      close_in ic;
      match Sink.of_string line with
      | Error e -> Alcotest.fail e
      | Ok j ->
        Alcotest.(check bool) "has server section" true
          (Sink.member "server" j <> None);
        Alcotest.(check bool) "has cache section" true
          (Sink.member "cache" j <> None))

(* Garbage on the wire gets a structured error and leaves both the
   connection and the server fully usable. *)
let test_survives_garbage () =
  with_server (fun ~socket ~metrics_out:_ ->
      let c = Client.connect_unix socket in
      List.iter
        (fun probe ->
          match Client.raw_request c probe with
          | Error f -> Alcotest.fail (Client.failure_to_string f)
          | Ok line -> (
            match Sink.of_string line with
            | Error e -> Alcotest.failf "unparseable error response: %s" e
            | Ok resp ->
              Alcotest.(check bool) "structured error" false
                (Protocol.is_ok resp);
              Alcotest.(check bool) "has code" true
                (Protocol.response_code resp <> None)))
        [
          "{\"op\": \"analyze\", garbage";
          "]]]]";
          String.make 600 '[';
          "{\"op\": 42}";
        ];
      (* same connection still answers real requests *)
      ignore
        (request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:2 ()));
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

(* A request whose deadline is shorter than the (chaos-injected)
   compute latency gets a structured deadline_exceeded, and the same
   request without a deadline still completes. *)
let test_deadline_exceeded () =
  let chaos =
    Chaos.create { Chaos.disabled with seed = 1; delay_p = 1.; delay_ms = 200 }
  in
  with_server ~chaos (fun ~socket ~metrics_out:_ ->
      let c = Client.connect_unix socket in
      (match
         Client.request c
           (Protocol.construction_request ~deadline_ms:30 ~name:"gworst-bliss"
              ~k:2 ())
       with
      | Error f -> Alcotest.fail (Client.failure_to_string f)
      | Ok resp ->
        Alcotest.(check (option string)) "deadline exceeded"
          (Some "deadline_exceeded")
          (Protocol.response_code resp));
      (* without a deadline the same request completes despite the delay *)
      ignore
        (request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:2 ()));
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

(* With one compute slot, no queue, and injected compute latency, a
   concurrent distinct analysis is shed immediately with a retry hint —
   and a retrying client eventually gets the real answer. *)
let test_load_shedding () =
  let limits =
    { Server.default_limits with max_concurrent = 1; max_queue = 0 }
  in
  let chaos =
    Chaos.create { Chaos.disabled with seed = 2; delay_p = 1.; delay_ms = 600 }
  in
  with_server ~limits ~chaos (fun ~socket ~metrics_out:_ ->
      let slow = Thread.create (fun () ->
          let c1 = Client.connect_unix socket in
          ignore
            (request_ok c1
               (Protocol.construction_request ~name:"gworst-curse" ~k:2 ()));
          Client.close c1) ()
      in
      Thread.delay 0.2;  (* let the slow analysis claim the only slot *)
      let c2 = Client.connect_unix socket in
      let req = Protocol.construction_request ~name:"gworst-curse" ~k:3 () in
      (match Client.request c2 req with
      | Error f -> Alcotest.fail (Client.failure_to_string f)
      | Ok resp ->
        Alcotest.(check (option string)) "shed" (Some "overloaded")
          (Protocol.response_code resp);
        Alcotest.(check bool) "retry hint present" true
          (Protocol.retry_after_ms resp <> None));
      Thread.join slow;
      (* retrying rides out the overload *)
      let retry =
        { Client.default_retry with attempts = 12; base_delay_ms = 100;
          seed = Some 5 }
      in
      (match Client.request ~retry c2 req with
      | Error f -> Alcotest.fail (Client.failure_to_string f)
      | Ok resp ->
        Alcotest.(check bool) "eventually answered" true (Protocol.is_ok resp));
      ignore (request_ok c2 Protocol.stats_request);
      Client.close c2)

(* Idle connections are closed by the read timeout; the client notices,
   refuses to reuse the dead socket without retry, and reconnects with
   it. *)
let test_idle_timeout_and_reconnect () =
  let limits = { Server.default_limits with idle_timeout_s = 0.25 } in
  with_server ~limits (fun ~socket ~metrics_out:_ ->
      let c = Client.connect_unix socket in
      ignore (request_ok c Protocol.stats_request);
      Thread.delay 0.8;  (* idle past the timeout: server hangs up *)
      (match Client.request c Protocol.stats_request with
      | Error (Client.Io _) -> ()
      | Error f -> Alcotest.failf "want Io, got %s" (Client.failure_to_string f)
      | Ok _ -> Alcotest.fail "dead connection answered");
      (* broken without retry: refused, not silently rewritten *)
      (match Client.request c Protocol.stats_request with
      | Error Client.Closed -> ()
      | Error f -> Alcotest.failf "want Closed, got %s" (Client.failure_to_string f)
      | Ok _ -> Alcotest.fail "broken client answered");
      (* with retry: reconnects to the remembered address *)
      let stats =
        match Client.request ~retry:Client.default_retry c Protocol.stats_request with
        | Error f -> Alcotest.fail (Client.failure_to_string f)
        | Ok resp -> resp
      in
      Alcotest.(check bool) "reconnected" true (Protocol.is_ok stats);
      let idle_closed =
        match
          Option.bind (Sink.member "server" stats) (Sink.member "idle_closed")
        with
        | Some (Sink.Int n) -> n
        | _ -> -1
      in
      Alcotest.(check bool) "idle close counted" true (idle_closed >= 1);
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

(* The listener refuses to clobber a live server's socket or a
   non-socket file, and silently replaces a stale socket left by a
   crash. *)
let test_bind_listener_safety () =
  with_server (fun ~socket ~metrics_out:_ ->
      let cache2 = Service.create () in
      (match Server.run ~cache:cache2 (Server.Unix_socket socket) with
      | () -> Alcotest.fail "second server bound over a live socket"
      | exception Failure _ -> ());
      Service.close cache2;
      let c = Client.connect_unix socket in
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c);
  let dir = Filename.temp_file "bi_bind" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  (* a plain file at the listen path is never unlinked *)
  let plain = Filename.concat dir "not-a-socket" in
  let oc = open_out plain in
  output_string oc "precious";
  close_out oc;
  let cache = Service.create () in
  (match Server.run ~cache (Server.Unix_socket plain) with
  | () -> Alcotest.fail "bound over a regular file"
  | exception Failure _ -> ());
  Alcotest.(check bool) "file survives" true (Sys.file_exists plain);
  Service.close cache;
  (* a stale socket (bound once, process gone) is replaced and served *)
  let stale = Filename.concat dir "stale.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  let cache = Service.create () in
  let ready = Mutex.create () and readied = Condition.create () in
  let is_ready = ref false in
  let server =
    Thread.create
      (fun () ->
        Server.run
          ~on_ready:(fun () ->
            Mutex.lock ready;
            is_ready := true;
            Condition.signal readied;
            Mutex.unlock ready)
          ~cache (Server.Unix_socket stale))
      ()
  in
  Mutex.lock ready;
  while not !is_ready do
    Condition.wait readied ready
  done;
  Mutex.unlock ready;
  let c = Client.connect_unix stale in
  ignore (request_ok c Protocol.stats_request);
  ignore (request_ok c Protocol.shutdown_request);
  Client.close c;
  Thread.join server;
  Service.close cache

(* --- digest / pull verbs ---------------------------------------------- *)

let test_parse_digest_pull () =
  (match Protocol.parse_request {|{"op":"digest"}|} with
  | Ok { Protocol.query = Protocol.Digest { bucket = None }; _ } -> ()
  | _ -> Alcotest.fail "digest rollup form");
  (match Protocol.parse_request {|{"op":"digest","bucket":7}|} with
  | Ok { Protocol.query = Protocol.Digest { bucket = Some 7 }; _ } -> ()
  | _ -> Alcotest.fail "digest bucket form");
  (match Protocol.parse_request {|{"op":"pull","keys":["a","b"]}|} with
  | Ok { Protocol.query = Protocol.Pull { keys = [ "a"; "b" ] }; _ } -> ()
  | _ -> Alcotest.fail "pull form");
  (* A payload put stores the body verbatim; the kind must be known. *)
  (match
     Protocol.parse_request
       {|{"op":"put","fingerprint":"f","kind":"payload","analysis":{"x":1}}|}
   with
  | Ok
      {
        Protocol.query =
          Protocol.Put { fingerprint = "f"; value = Protocol.Put_payload _ };
        _;
      } ->
    ()
  | _ -> Alcotest.fail "payload put form");
  List.iter
    (fun bad ->
      match Protocol.parse_request bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" bad)
    [
      {|{"op":"digest","bucket":-1}|};
      (Printf.sprintf {|{"op":"digest","bucket":%d}|} Store.buckets);
      {|{"op":"digest","bucket":"low"}|};
      {|{"op":"pull"}|};
      {|{"op":"pull","keys":[]}|};
      {|{"op":"pull","keys":[7]}|};
      {|{"op":"pull","keys":[""]}|};
      {|{"op":"pull","keys":"a"}|};
      {|{"op":"put","fingerprint":"f","kind":"mystery","analysis":{}}|};
    ];
  (* The builders emit what the parser accepts, and an analysis put
     carries no "kind" field at all — byte-compatible with pre-repair
     routers. *)
  let put_line =
    Sink.to_string (Protocol.put_request ~fingerprint:"f" (Sink.Obj []))
  in
  Alcotest.(check bool) "analysis put omits kind" false
    (let rec mem_sub i =
       i + 6 <= String.length put_line
       && (String.sub put_line i 6 = {|"kind"|} || mem_sub (i + 1))
     in
     mem_sub 0);
  match
    Protocol.parse_request
      (Sink.to_string (Protocol.pull_request [ "k1"; "k2" ]))
  with
  | Ok { Protocol.query = Protocol.Pull { keys = [ "k1"; "k2" ] }; _ } -> ()
  | _ -> Alcotest.fail "pull builder round-trip"

let test_digest_pull_end_to_end () =
  with_server ~shard:"shard-d" (fun ~socket ~metrics_out:_ ->
      let c = Client.connect_unix socket in
      (* Seed the shard: one computed analysis, one pushed payload. *)
      let r =
        request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:2 ())
      in
      let fp =
        match Sink.member "fingerprint" r with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      let payload = Sink.Obj [ ("answer", Sink.Int 42) ] in
      ignore
        (request_ok c
           (Protocol.put_request ~kind:"payload" ~fingerprint:"payload-key"
              payload));
      (* Rollup: every resident key's bucket appears, each digest
         recomputable from that bucket's (key, check) pairs. *)
      let rollup =
        match
          Protocol.rollup_of (request_ok c (Protocol.digest_request ()))
        with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      let buckets = List.map fst rollup in
      Alcotest.(check bool) "analysis bucket advertised" true
        (List.mem (Store.bucket_of_key fp) buckets);
      Alcotest.(check bool) "payload bucket advertised" true
        (List.mem (Store.bucket_of_key "payload-key") buckets);
      List.iter
        (fun (b, digest) ->
          let pairs =
            match
              Protocol.bucket_keys_of
                (request_ok c (Protocol.digest_request ~bucket:b ()))
            with
            | Ok pairs -> pairs
            | Error e -> Alcotest.fail e
          in
          Alcotest.(check string) "bucket digest matches pairs" digest
            (Store.bucket_digest pairs))
        rollup;
      (* Pull: the payload comes back verbatim, unknown keys as missing. *)
      let missing_of resp =
        match Sink.member "missing" resp with
        | Some (Sink.List l) ->
          List.filter_map (function Sink.Str s -> Some s | _ -> None) l
        | _ -> []
      in
      let pulled = request_ok c (Protocol.pull_request [ "payload-key"; "ghost" ]) in
      Alcotest.(check (list string)) "ghost missing" [ "ghost" ]
        (missing_of pulled);
      (match Protocol.entries_of pulled with
      | Error e -> Alcotest.fail e
      | Ok [ e ] ->
        Alcotest.(check string) "key" "payload-key" e.Store.key;
        Alcotest.(check string) "kind" "payload" e.Store.kind;
        Alcotest.(check string) "body verbatim" (Sink.to_string payload)
          (Sink.to_string e.Store.body)
      | Ok _ -> Alcotest.fail "expected exactly the payload entry");
      (* The pulled analysis entry re-puts cleanly: the repair loop's
         pull -> put cycle is lossless. *)
      (match
         Protocol.entries_of (request_ok c (Protocol.pull_request [ fp ]))
       with
      | Error e -> Alcotest.fail e
      | Ok [ e ] ->
        let stored =
          request_ok c
            (Protocol.put_request ~kind:e.Store.kind ~fingerprint:e.Store.key
               e.Store.body)
        in
        Alcotest.(check (option bool)) "re-put accepted" (Some true)
          (get_bool "stored" stored)
      | Ok _ -> Alcotest.fail "expected exactly the analysis entry");
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

(* --- partition and slow-peer chaos ------------------------------------ *)

let test_connection_action () =
  (* One positive draw opens a window during which every connection is
     refused — a whole-node partition, not per-request noise. *)
  let t =
    Chaos.create
      { Chaos.disabled with seed = 1; partition_p = 1.0; partition_ms = 10_000 }
  in
  Alcotest.(check bool) "first connection refused" true
    (Chaos.connection_action t = `Refuse);
  Alcotest.(check bool) "window refuses the next connection too" true
    (Chaos.connection_action t = `Refuse);
  let t = Chaos.create { Chaos.disabled with seed = 1; slow_p = 1.0; slow_ms = 7 } in
  (match Chaos.connection_action t with
  | `Stall 7 -> ()
  | _ -> Alcotest.fail "expected a 7 ms stall");
  let t = Chaos.create Chaos.disabled in
  Alcotest.(check bool) "disabled proceeds" true
    (Chaos.connection_action t = `Proceed);
  (* The spec grammar covers the new fields. *)
  (match Chaos.parse "partition_p=0.5,partition_ms=250,slow_p=0.1,slow_ms=40" with
  | Ok cfg ->
    Alcotest.(check (float 1e-9)) "partition_p" 0.5 cfg.Chaos.partition_p;
    Alcotest.(check int) "partition_ms" 250 cfg.Chaos.partition_ms;
    Alcotest.(check (float 1e-9)) "slow_p" 0.1 cfg.Chaos.slow_p;
    Alcotest.(check int) "slow_ms" 40 cfg.Chaos.slow_ms;
    Alcotest.(check bool) "enabled" true (Chaos.is_enabled cfg)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Chaos.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %s" bad)
    [ "partition_p=2"; "partition_ms=-1"; "slow_p=x"; "slow_ms=0.5" ]

let test_lineserver_refuse_and_stall () =
  let dir = Filename.temp_file "bi_refuse" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "bi.sock" in
  let refuse = ref true in
  let ls = Lineserver.create (Lineserver.Unix_socket socket) in
  let th =
    Thread.create
      (fun () ->
        Lineserver.run
          ~on_accept:(fun () -> if !refuse then `Refuse else `Stall 50)
          ~handler:(fun oc _line ->
            output_string oc "{\"ok\":true}\n";
            flush oc;
            `Continue)
          ls)
      ()
  in
  (* Refused: the connection dies before any byte is served — to the
     client a partitioned node, a fast transport failure. *)
  let c = Client.connect_unix socket in
  (match Client.request c Protocol.stats_request with
  | Error (Client.Io _) -> ()
  | Ok _ -> Alcotest.fail "refused connection still answered"
  | Error f -> Alcotest.failf "unexpected failure: %s" (Client.failure_to_string f));
  Client.close c;
  (* Stalled: served late but served. *)
  refuse := false;
  let c = Client.connect_unix socket in
  let t0 = Unix.gettimeofday () in
  (match Client.request c Protocol.stats_request with
  | Ok resp -> Alcotest.(check bool) "served" true (Protocol.is_ok resp)
  | Error f -> Alcotest.fail (Client.failure_to_string f));
  Alcotest.(check bool) "stall delayed the response" true
    (Unix.gettimeofday () -. t0 >= 0.045);
  Client.close c;
  Lineserver.initiate_shutdown ls;
  Thread.join th

(* A partition window reaches connections accepted before it opened:
   the next request on one is hung up on, unanswered. *)
let test_partition_reaches_open_connection () =
  (* At p = 1/2, a seed whose first draw (the first accept) opens no
     window but whose next draws (that connection's response draws,
     then the second accept) all do. *)
  let opens s c = Chaos.unit_float ~seed:s ~counter:c < 0.5 in
  let rec find s =
    if (not (opens s 0)) && List.for_all (opens s) [ 1; 2; 3; 4; 5; 6 ] then s
    else find (s + 1)
  in
  let partition_ms = 300 in
  let chaos =
    Chaos.create
      { Chaos.disabled with seed = find 0; partition_p = 0.5; partition_ms }
  in
  with_server ~chaos (fun ~socket ~metrics_out:_ ->
      (* Shut down once a window has closed (an accept may open another),
         even when a check fails: the server's own teardown cannot get
         through a window. *)
      let rec shutdown tries =
        Thread.delay (float_of_int partition_ms /. 1000.);
        let e = Client.connect_unix socket in
        let r = Client.request e Protocol.shutdown_request in
        Client.close e;
        match r with
        | Error _ when tries > 1 -> shutdown (tries - 1)
        | _ -> ()
      in
      Fun.protect ~finally:(fun () -> shutdown 50) (fun () ->
          let c = Client.connect_unix socket in
          ignore (request_ok c Protocol.health_request);
          (* The second accept opens a window and is refused... *)
          let d = Client.connect_unix socket in
          (match Client.request d Protocol.health_request with
          | Error (Client.Io _) -> ()
          | Ok _ -> Alcotest.fail "refused connection answered"
          | Error f -> Alcotest.fail (Client.failure_to_string f));
          Client.close d;
          (* ...and the first connection, open all along, is hung up on. *)
          (match Client.request c Protocol.health_request with
          | Error (Client.Io _) ->
            Alcotest.(check bool) "hung up, not timed out" true
              (Client.hung_up c)
          | Ok _ -> Alcotest.fail "answered inside a partition window"
          | Error f -> Alcotest.fail (Client.failure_to_string f));
          Client.close c))

let () =
  Alcotest.run "bi_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request parsing" `Quick test_parse_requests;
          Alcotest.test_case "response codes" `Quick test_response_codes;
          Alcotest.test_case "solver-tier round-trip" `Quick
            test_mode_round_trip;
          Alcotest.test_case "solution-concept round-trip" `Quick
            test_concept_round_trip;
          QCheck_alcotest.to_alcotest fuzz_parse_total;
          Alcotest.test_case "hostile inputs" `Quick test_parse_hostile_inputs;
          Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
          Alcotest.test_case "chaos spec parsing" `Quick test_chaos_parse;
          Alcotest.test_case "digest and pull parsing" `Quick
            test_parse_digest_pull;
          Alcotest.test_case "partition and slow-peer actions" `Quick
            test_connection_action;
          QCheck_alcotest.to_alcotest backoff_within_bounds;
          QCheck_alcotest.to_alcotest backoff_hint_floor;
          QCheck_alcotest.to_alcotest backoff_seed_distinct;
          QCheck_alcotest.to_alcotest backoff_deterministic;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end over a unix socket" `Quick
            test_end_to_end;
          Alcotest.test_case "certified tier over the wire" `Quick
            test_certified_tier;
          Alcotest.test_case "correlated concept over the wire" `Quick
            test_correlated_concept;
          Alcotest.test_case "health and put verbs" `Quick test_health_and_put;
          Alcotest.test_case "metrics dump on shutdown" `Quick test_metrics_dump;
          Alcotest.test_case "survives garbage on the wire" `Quick
            test_survives_garbage;
          Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
          Alcotest.test_case "load shedding and retry" `Quick test_load_shedding;
          Alcotest.test_case "idle timeout and reconnect" `Quick
            test_idle_timeout_and_reconnect;
          Alcotest.test_case "listener refuses live socket" `Quick
            test_bind_listener_safety;
          Alcotest.test_case "digest and pull verbs end to end" `Quick
            test_digest_pull_end_to_end;
          Alcotest.test_case "refused and stalled connections" `Quick
            test_lineserver_refuse_and_stall;
          Alcotest.test_case "partition reaches an open connection" `Quick
            test_partition_reaches_open_connection;
        ] );
    ]
