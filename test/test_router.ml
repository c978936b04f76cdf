(* Tests for the cluster front-end: consistent-hash ring laws,
   membership state machine, and an end-to-end router over in-process
   shards — forward, front cache, quorum replication, failover with
   byte-identical warm answers, structured errors when every shard is
   gone, and the kept shard connections (reuse, a restart behind one, a
   stall on one). *)

module Ring = Bi_router.Ring
module Membership = Bi_router.Membership
module Router = Bi_router.Router
module Hints = Bi_router.Hints
module Fsck = Bi_router.Fsck
module Store = Bi_cache.Store
module Protocol = Bi_serve.Protocol
module Server = Bi_serve.Server
module Client = Bi_serve.Client
module Service = Bi_cache.Service
module Sink = Bi_engine.Sink
module Fingerprint = Bi_cache.Fingerprint
module Registry = Bi_constructions.Registry
module Lineserver = Bi_serve.Lineserver

(* --- ring laws --------------------------------------------------------- *)

let gen_member = QCheck2.Gen.(map (Printf.sprintf "shard-%d") (int_range 0 9))

let gen_members =
  QCheck2.Gen.(list_size (int_range 2 6) gen_member)

let gen_key = QCheck2.Gen.(map (Printf.sprintf "fp-%d") int)

(* Adding one member moves a key only onto that member: every other key
   keeps its previous owner.  This is the property that makes membership
   changes cheap — the cluster never reshuffles keys between survivors. *)
let ring_stable_under_addition =
  QCheck2.Test.make ~name:"adding a member moves keys only onto it" ~count:300
    QCheck2.Gen.(tup3 gen_members (int_range 10 19) gen_key)
    (fun (members, extra, key) ->
      let added = Printf.sprintf "shard-%d" extra in
      let before = Ring.create members in
      let after = Ring.create (added :: members) in
      match (Ring.owner before key, Ring.owner after key) with
      | Some old_owner, Some new_owner ->
        new_owner = old_owner || new_owner = added
      | _ -> false)

(* The mirror law: removing a member only moves that member's keys. *)
let ring_stable_under_removal =
  QCheck2.Test.make ~name:"removing a member strands only its keys" ~count:300
    QCheck2.Gen.(tup2 gen_members gen_key)
    (fun (members, key) ->
      QCheck2.assume (List.length (List.sort_uniq compare members) >= 2);
      let ring = Ring.create members in
      let victim = List.hd (Ring.members ring) in
      let survivor_ring =
        Ring.create (List.filter (fun m -> m <> victim) members)
      in
      match Ring.owner ring key with
      | Some owner when owner <> victim ->
        Ring.owner survivor_ring key = Some owner
      | _ -> true)

(* Replica sets are distinct members, primary first, and never larger
   than the membership. *)
let ring_owner_sets =
  QCheck2.Test.make ~name:"owner lists are distinct and bounded" ~count:300
    QCheck2.Gen.(tup3 gen_members (int_range 1 5) gen_key)
    (fun (members, n, key) ->
      let ring = Ring.create members in
      let owners = Ring.owners ring ~n key in
      let distinct = List.sort_uniq compare owners in
      List.length owners = min n (List.length (Ring.members ring))
      && List.length distinct = List.length owners
      && Ring.owner ring key = Some (List.hd owners))

(* With the default vnodes, 1k fingerprints spread across 5 shards
   within a 3x band of the fair share — no shard is starved or crushed. *)
let test_ring_balance () =
  let members = List.init 5 (Printf.sprintf "shard-%d") in
  let ring = Ring.create members in
  let counts = Hashtbl.create 8 in
  let keys = 1000 in
  for i = 0 to keys - 1 do
    (* Keys shaped like real fingerprints: hex digests. *)
    let key = Digest.to_hex (Digest.string (Printf.sprintf "game-%d" i)) in
    match Ring.owner ring key with
    | Some m ->
      Hashtbl.replace counts m (1 + Option.value ~default:0 (Hashtbl.find_opt counts m))
    | None -> Alcotest.fail "ring with members owned nothing"
  done;
  let fair = keys / List.length members in
  List.iter
    (fun m ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts m) in
      if n < fair / 3 || n > fair * 3 then
        Alcotest.failf "%s owns %d of %d keys (fair share %d)" m n keys fair)
    members

(* Equal member sets build identical rings regardless of order or
   duplication — SIGHUP reloads with a shuffled file must not rehash. *)
let test_ring_canonical () =
  let a = Ring.create [ "s1"; "s2"; "s3" ] in
  let b = Ring.create [ "s3"; "s1"; "s2"; "s1" ] in
  Alcotest.(check (list string)) "members" (Ring.members a) (Ring.members b);
  for i = 0 to 99 do
    let key = Printf.sprintf "k%d" i in
    Alcotest.(check (option string)) key (Ring.owner a key) (Ring.owner b key)
  done

(* --- membership state machine ----------------------------------------- *)

let test_membership_lifecycle () =
  let m = Membership.create [ "a"; "b" ] in
  Alcotest.(check (list string)) "members" [ "a"; "b" ] (Membership.members m);
  (* Everyone starts Suspect with a probe due immediately. *)
  Alcotest.(check (list string)) "all due at 0" [ "a"; "b" ]
    (Membership.due m ~now:0);
  Alcotest.(check (list string)) "suspects are routable" [ "a"; "b" ]
    (Membership.routable m);
  (* First success is a recovery (the warming trigger); repeats are not. *)
  (match Membership.note_success m ~now:0 "a" with
  | `Recovered -> ()
  | `Ok -> Alcotest.fail "first success must report `Recovered");
  (match Membership.note_success m ~now:1 "a" with
  | `Ok -> ()
  | `Recovered -> Alcotest.fail "repeat success must not re-trigger warming");
  Alcotest.(check bool) "a is Up" true
    (Membership.state m "a" = Some Membership.Up);
  (* Three consecutive failures take a member Down, once. *)
  (match Membership.note_failure m ~now:1 "b" with
  | `Ok -> ()
  | `Went_down -> Alcotest.fail "down too early");
  ignore (Membership.note_failure m ~now:3 "b");
  (match Membership.note_failure m ~now:7 "b" with
  | `Went_down -> ()
  | `Ok -> Alcotest.fail "third failure must report `Went_down");
  Alcotest.(check bool) "b is Down" true
    (Membership.state m "b" = Some Membership.Down);
  Alcotest.(check (list string)) "down members are not routable" [ "a" ]
    (Membership.routable m);
  (* Recovery resets everything. *)
  (match Membership.note_success m ~now:20 "b" with
  | `Recovered -> ()
  | `Ok -> Alcotest.fail "coming back from Down must report `Recovered");
  Alcotest.(check (list string)) "both routable again" [ "a"; "b" ]
    (Membership.routable m)

(* Probe backoff is deterministic: after f consecutive failures the next
   probe is min max_backoff (2^f) ticks out. *)
let test_membership_backoff () =
  let m = Membership.create ~max_backoff:8 [ "a" ] in
  ignore (Membership.note_failure m ~now:0 "a");
  Alcotest.(check (list string)) "not due before the backoff" []
    (Membership.due m ~now:1);
  Alcotest.(check (list string)) "due after 2 ticks" [ "a" ]
    (Membership.due m ~now:2);
  ignore (Membership.note_failure m ~now:2 "a");
  Alcotest.(check (list string)) "second backoff is 4 ticks" [ "a" ]
    (Membership.due m ~now:6);
  ignore (Membership.note_failure m ~now:6 "a");
  ignore (Membership.note_failure m ~now:14 "a");
  (* 2^4 = 16 exceeds max_backoff = 8: capped. *)
  Alcotest.(check (list string)) "backoff capped" [ "a" ]
    (Membership.due m ~now:22)

let test_membership_reload () =
  let m = Membership.create [ "a"; "b" ] in
  ignore (Membership.note_success m ~now:0 "a");
  let added = Membership.set_members m [ "a"; "c" ] in
  Alcotest.(check (list string)) "added members reported" [ "c" ] added;
  Alcotest.(check (list string)) "membership replaced" [ "a"; "c" ]
    (Membership.members m);
  (* Survivors keep their state; newcomers start Suspect and due now. *)
  Alcotest.(check bool) "a still Up" true
    (Membership.state m "a" = Some Membership.Up);
  Alcotest.(check bool) "c starts Suspect" true
    (Membership.state m "c" = Some Membership.Suspect);
  Alcotest.(check bool) "b forgotten" true (Membership.state m "b" = None)

(* parse_members warns on stderr for every duplicate it drops; the
   dedupe tests provoke hundreds of them on purpose. *)
let silencing_stderr f =
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stderr;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f

let test_parse_members () =
  Alcotest.(check (list string))
    "commas and whitespace"
    [ "/tmp/a.sock"; "127.0.0.1:7401"; "7402" ]
    (Router.parse_members "/tmp/a.sock, 127.0.0.1:7401\n7402");
  Alcotest.(check (list string)) "empty" [] (Router.parse_members " \n ,, ");
  (* Duplicates are dropped at parse time — first occurrence kept, order
     preserved — so a doubled line in a members file cannot double-weight
     the ring or let one shard count twice toward the quorum. *)
  silencing_stderr (fun () ->
      Alcotest.(check (list string))
        "duplicates dropped, order kept" [ "a"; "b"; "c" ]
        (Router.parse_members "a, b, a\nb c b"))

let parse_members_dedupes =
  QCheck2.Test.make ~name:"parse_members keeps first occurrences in order"
    ~count:300
    QCheck2.Gen.(list_size (int_range 0 12) gen_member)
    (fun members ->
      let dedupe xs =
        List.rev
          (List.fold_left
             (fun acc x -> if List.mem x acc then acc else x :: acc)
             [] xs)
      in
      silencing_stderr (fun () ->
          Router.parse_members (String.concat "," members) = dedupe members))

(* --- hinted handoff ---------------------------------------------------- *)

let test_hints_log () =
  let h = Hints.create ~capacity:2 () in
  Alcotest.(check int) "empty" 0 (Hints.pending h);
  ignore (Hints.record h ~member:"a" ~fingerprint:"k1" ~kind:"analysis" (Sink.Int 1));
  ignore (Hints.record h ~member:"b" ~fingerprint:"k2" ~kind:"payload" (Sink.Int 2));
  Alcotest.(check int) "two parked" 2 (Hints.pending h);
  Alcotest.(check (list string)) "members, oldest hint first" [ "a"; "b" ]
    (Hints.members h);
  (* A newer write to the same (member, key) supersedes in place. *)
  ignore (Hints.record h ~member:"a" ~fingerprint:"k1" ~kind:"analysis" (Sink.Int 3));
  Alcotest.(check int) "superseded, not duplicated" 2 (Hints.pending h);
  (* At capacity the oldest hint (a's) is evicted to make room. *)
  let evicted =
    Hints.record h ~member:"b" ~fingerprint:"k3" ~kind:"analysis" (Sink.Int 4)
  in
  Alcotest.(check int) "one evicted" 1 evicted;
  Alcotest.(check int) "bounded" 2 (Hints.pending h);
  Alcotest.(check int) "a's hint was the eviction victim" 0
    (List.length (Hints.take h "a"));
  (match Hints.take h "b" with
  | [ h2; h3 ] ->
    Alcotest.(check string) "oldest first" "k2" h2.Hints.fingerprint;
    Alcotest.(check string) "kind kept" "payload" h2.Hints.kind;
    Alcotest.(check string) "newest last" "k3" h3.Hints.fingerprint
  | l -> Alcotest.failf "expected b's two hints, got %d" (List.length l));
  Alcotest.(check int) "drained" 0 (Hints.pending h);
  Alcotest.(check (list string)) "no members left" [] (Hints.members h);
  Hints.close h

let test_hints_durability () =
  let path = Filename.temp_file "bi_hints" ".jsonl" in
  let h = Hints.create ~path () in
  ignore (Hints.record h ~member:"a" ~fingerprint:"k1" ~kind:"analysis" (Sink.Int 1));
  ignore (Hints.record h ~member:"a" ~fingerprint:"k1" ~kind:"analysis" (Sink.Int 2));
  ignore (Hints.record h ~member:"b" ~fingerprint:"k2" ~kind:"payload" (Sink.Str "x"));
  ignore (Hints.take h "b");
  Hints.close h;
  (* A restarted router replays exactly the outstanding hints: the
     delivered one is tombstoned, the superseding body wins. *)
  let h = Hints.create ~path () in
  Alcotest.(check int) "only the undelivered hint survives" 1 (Hints.pending h);
  (match Hints.take h "a" with
  | [ hint ] ->
    Alcotest.(check string) "fingerprint" "k1" hint.Hints.fingerprint;
    Alcotest.(check string) "superseding body wins" "2"
      (Sink.to_string hint.Hints.body)
  | l -> Alcotest.failf "expected one replayed hint, got %d" (List.length l));
  Hints.close h;
  Sys.remove path

(* --- divergence rule (fsck / anti-entropy core) ------------------------ *)

let test_fsck_divergences () =
  let ring = Ring.create [ "s1"; "s2"; "s3" ] in
  let owners = Ring.owners ring ~n:2 "k" in
  let primary = List.nth owners 0 and secondary = List.nth owners 1 in
  let other =
    List.find (fun m -> not (List.mem m owners)) (Ring.members ring)
  in
  let tbl pairs =
    let t = Hashtbl.create 4 in
    List.iter (fun (k, v) -> Hashtbl.replace t k v) pairs;
    t
  in
  let checked, divs =
    Fsck.divergences ~ring ~replicas:2
      [
        (primary, tbl [ ("k", "c1") ]);
        (secondary, tbl [ ("k", "c1") ]);
        (other, tbl []);
      ]
  in
  Alcotest.(check int) "keys checked" 1 checked;
  Alcotest.(check int) "agreement is silent" 0 (List.length divs);
  let _, divs =
    Fsck.divergences ~ring ~replicas:2
      [ (primary, tbl [ ("k", "c1") ]); (secondary, tbl []); (other, tbl []) ]
  in
  (match divs with
  | [ d ] ->
    Alcotest.(check string) "authority is the first holder" primary
      d.Fsck.authority;
    Alcotest.(check (list string)) "missing owner reported" [ secondary ]
      d.Fsck.missing;
    Alcotest.(check int) "bucket" (Store.bucket_of_key "k") d.Fsck.bucket
  | _ -> Alcotest.fail "expected one divergence for the missing replica");
  (* Conflicting checks: the holder earliest in ring-owner order is the
     authority — the deterministic LWW proxy repair converges onto. *)
  let _, divs =
    Fsck.divergences ~ring ~replicas:2
      [
        (primary, tbl [ ("k", "c1") ]);
        (secondary, tbl [ ("k", "c2") ]);
        (other, tbl []);
      ]
  in
  (match divs with
  | [ d ] -> Alcotest.(check string) "conflict authority" primary d.Fsck.authority
  | _ -> Alcotest.fail "expected one divergence for the conflict");
  (* A non-owner's stray copy (membership-change leftover) is ignored. *)
  let _, divs =
    Fsck.divergences ~ring ~replicas:2
      [
        (primary, tbl [ ("k", "c1") ]);
        (secondary, tbl [ ("k", "c1") ]);
        (other, tbl [ ("k", "zzz") ]);
      ]
  in
  Alcotest.(check int) "stray non-owner copy ignored" 0 (List.length divs)

(* --- end-to-end: router over two in-process shards --------------------- *)

let get_bool key j =
  match Sink.member key j with Some (Sink.Bool b) -> Some b | _ -> None

let request_ok client req =
  match Client.request client req with
  | Error f -> Alcotest.fail (Client.failure_to_string f)
  | Ok resp ->
    Alcotest.(check bool) "response ok" true (Protocol.is_ok resp);
    resp

let with_ready_thread f =
  let ready = Mutex.create () and readied = Condition.create () in
  let is_ready = ref false in
  let on_ready () =
    Mutex.lock ready;
    is_ready := true;
    Condition.signal readied;
    Mutex.unlock ready
  in
  let th = Thread.create (fun () -> f ~on_ready) () in
  Mutex.lock ready;
  while not !is_ready do
    Condition.wait readied ready
  done;
  Mutex.unlock ready;
  th

let start_shard ~dir ~name =
  let socket = Filename.concat dir (name ^ ".sock") in
  let cache = Service.create ~shard:name () in
  let th =
    with_ready_thread (fun ~on_ready ->
        Server.run ~on_ready ~cache (Server.Unix_socket socket))
  in
  (socket, cache, th)

let stop_endpoint socket =
  try
    let c = Client.connect_unix socket in
    ignore (Client.request c Protocol.shutdown_request);
    Client.close c
  with Unix.Unix_error _ -> ()

let analysis_bytes resp =
  Sink.to_string (Option.get (Sink.member "analysis" resp))

let test_router_end_to_end () =
  let dir = Filename.temp_file "bi_router" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" in
  let members = [ sock_a; sock_b ] in
  let router_sock = Filename.concat dir "router.sock" in
  (* front_capacity = 1 so the second construction evicts the first from
     the front cache, forcing the failover path below to hit shards. *)
  let config =
    {
      Router.default_config with
      front_capacity = 1;
      probe_interval_s = 0.05;
      shard_timeout_s = 5.;
    }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~config ~members
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b)
    (fun () ->
      let c = Client.connect_unix router_sock in
      (* A router answers the control verbs itself. *)
      let h = request_ok c Protocol.health_request in
      Alcotest.(check (option string)) "router health" (Some "router")
        (Protocol.shard_of h);
      ignore (request_ok c Protocol.stats_request);
      (* Cold key: the router forwards, a shard computes. *)
      let req2 = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
      let r2 = request_ok c req2 in
      Alcotest.(check (option bool)) "cold compute" (Some false)
        (get_bool "cached" r2);
      let fp2 =
        match Sink.member "fingerprint" r2 with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      let bytes2 = analysis_bytes r2 in
      (* Same key again: front cache, byte-identical. *)
      let r2' = request_ok c req2 in
      Alcotest.(check (option bool)) "front cache hit" (Some true)
        (get_bool "cached" r2');
      Alcotest.(check string) "front cache byte-identical" bytes2
        (analysis_bytes r2');
      (* With 2 members and quorum 2, replication has pushed the entry
         to both shards: each answers it cached, byte-identically. *)
      List.iter
        (fun sock ->
          let d = Client.connect_unix sock in
          let r = request_ok d req2 in
          Alcotest.(check (option bool))
            (sock ^ " holds a quorum copy") (Some true) (get_bool "cached" r);
          Alcotest.(check string) (sock ^ " copy byte-identical") bytes2
            (analysis_bytes r);
          Client.close d)
        members;
      (* A put through the router must reach the quorum too. *)
      let stored =
        request_ok c
          (Protocol.put_request ~fingerprint:fp2
             (Option.get (Sink.member "analysis" r2)))
      in
      Alcotest.(check (option bool)) "router put stored" (Some true)
        (get_bool "stored" stored);
      (* Evict fp2 from the 1-entry front cache... *)
      ignore (request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:3 ()));
      (* ...kill fp2's primary owner, and ask again through the router:
         failover must serve the replica's copy, byte-identical. *)
      let ring = Ring.create members in
      let primary = Option.get (Ring.owner ring fp2) in
      let replica = List.find (fun m -> m <> primary) members in
      stop_endpoint primary;
      Thread.join (if primary = sock_a then th_a else th_b);
      let r2'' = request_ok c req2 in
      Alcotest.(check (option bool)) "failover hits the replica's cache"
        (Some true) (get_bool "cached" r2'');
      Alcotest.(check string) "failover byte-identical" bytes2
        (analysis_bytes r2'');
      (* Both shards gone: a fresh key must come back as a structured
         error, never a hang or a torn line. *)
      stop_endpoint replica;
      Thread.join (if replica = sock_a then th_a else th_b);
      (match
         Client.request c (Protocol.construction_request ~name:"gworst-bliss" ~k:4 ())
       with
      | Ok resp ->
        Alcotest.(check bool) "structured error with no shards" false
          (Protocol.is_ok resp)
      | Error f -> Alcotest.fail (Client.failure_to_string f));
      (* Control verbs keep working even with every shard gone. *)
      ignore (request_ok c Protocol.stats_request);
      let bye = request_ok c Protocol.shutdown_request in
      Alcotest.(check (option bool)) "router stopping" (Some true)
        (get_bool "stopping" bye);
      Client.close c)

(* A correlated concept through the router: routed on the
   concept-qualified key, answered with the LP payload and no
   ["analysis"] member (so the front cache skips it — the repeat is
   served from the shard's cache, not the router's), while a nash
   request for the same game flows exactly as before. *)
let test_router_correlated () =
  let dir = Filename.temp_file "bi_router_corr" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" in
  let members = [ sock_a ] in
  let router_sock = Filename.concat dir "router.sock" in
  let config =
    {
      Router.default_config with
      replicas = 1;
      quorum = 1;
      probe_interval_s = 0.05;
      shard_timeout_s = 10.;
    }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~config ~members
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      Thread.join th_a;
      Service.close cache_a)
    (fun () ->
      let c = Client.connect_unix router_sock in
      let req =
        Protocol.construction_request ~concept:Bi_correlated.Concept.Cce
          ~name:"gworst-bliss" ~k:2 ()
      in
      let r1 = request_ok c req in
      Alcotest.(check (option bool)) "cold compute through the router"
        (Some false) (get_bool "cached" r1);
      Alcotest.(check bool) "correlated payload present" true
        (Sink.member "correlated" r1 <> None);
      Alcotest.(check bool) "no analysis member" true
        (Sink.member "analysis" r1 = None);
      (match Sink.member "fingerprint" r1 with
      | Some (Sink.Str fp) ->
        Alcotest.(check bool) "concept-qualified fingerprint" true
          (Filename.check_suffix fp "+cce")
      | _ -> Alcotest.fail "fingerprint missing");
      (* No analysis member, so the front cache stored nothing: the
         repeat forwards to the shard, which answers from its cache. *)
      let r2 = request_ok c req in
      Alcotest.(check (option bool)) "repeat from the shard's cache"
        (Some true) (get_bool "cached" r2);
      Alcotest.(check string) "byte-identical correlated payload"
        (Sink.to_string (Option.get (Sink.member "correlated" r1)))
        (Sink.to_string (Option.get (Sink.member "correlated" r2)));
      (* The nash default for the same game still flows as before. *)
      let r3 =
        request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:2 ())
      in
      Alcotest.(check bool) "nash answer has its analysis" true
        (Sink.member "analysis" r3 <> None);
      Alcotest.(check bool) "nash answer has no concept member" true
        (Sink.member "concept" r3 = None);
      let bye = request_ok c Protocol.shutdown_request in
      Alcotest.(check (option bool)) "router stopping" (Some true)
        (get_bool "stopping" bye);
      Client.close c)

let get_int key j =
  match Sink.member key j with Some (Sink.Int n) -> Some n | _ -> None

let member_state stats m =
  match Sink.member "members" stats with
  | Some (Sink.Obj fields) -> (
    match List.assoc_opt m fields with Some (Sink.Str s) -> Some s | _ -> None)
  | _ -> None

let counter stats key =
  match Sink.member "router" stats with
  | Some counters -> Option.value ~default:0 (get_int key counters)
  | None -> 0

let wait_until ?(deadline = 15.) ~what f =
  let rec go left =
    if f () then ()
    else if left <= 0. then Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.1;
      go (left -. 0.1)
    end
  in
  go deadline

(* A failover read answered from a replica's cache parks the answer for
   every owner that failed (read-repair), and a fresh compute that
   cannot replicate to an owner parks a hint too.  Probes run only at
   startup here, so the dead primary stays nominally Up and is tried —
   and fails — first, making the failover deterministic. *)
let test_read_repair_parks_hints () =
  let dir = Filename.temp_file "bi_rr" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" in
  let members = [ sock_a; sock_b ] in
  let router_sock = Filename.concat dir "router.sock" in
  let config =
    {
      Router.default_config with
      front_capacity = 1;
      probe_interval_s = 30.;
      shard_timeout_s = 5.;
    }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~config ~members
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b)
    (fun () ->
      let c = Client.connect_unix router_sock in
      let req = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
      let r = request_ok c req in
      let bytes = analysis_bytes r in
      let fp =
        match Sink.member "fingerprint" r with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      let ring = Ring.create members in
      let primary = Option.get (Ring.owner ring fp) in
      stop_endpoint primary;
      Thread.join (if primary = sock_a then th_a else th_b);
      (* Fresh compute: replication to the dead owner parks a hint (and
         evicts the k=2 entry from the 1-slot front cache). *)
      ignore
        (request_ok c (Protocol.construction_request ~name:"gworst-bliss" ~k:3 ()));
      (* The k=2 read now fails over to the replica's cache and parks
         the answer for the dead primary. *)
      let r' = request_ok c req in
      Alcotest.(check (option bool)) "failover read from the replica's cache"
        (Some true) (get_bool "cached" r');
      Alcotest.(check string) "failover byte-identical" bytes
        (analysis_bytes r');
      let stats = request_ok c Protocol.stats_request in
      Alcotest.(check bool) "both writes parked for the dead owner" true
        (Option.value ~default:0 (get_int "hints" stats) >= 2);
      Alcotest.(check bool) "read_repairs counted" true
        (counter stats "read_repairs" >= 1);
      Alcotest.(check bool) "hints_recorded counted" true
        (counter stats "hints_recorded" >= 2);
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

(* Down→Up recovery drains the hint log into the restarted (empty)
   shard before warming, and the anti-entropy loop converges the keys
   no hint covered — all without recomputing anything. *)
let test_recovery_drains_hints () =
  let dir = Filename.temp_file "bi_drain" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" in
  let members = [ sock_a; sock_b ] in
  let router_sock = Filename.concat dir "router.sock" in
  let config =
    {
      Router.default_config with
      front_capacity = 1;
      probe_interval_s = 0.05;
      shard_timeout_s = 5.;
    }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~config ~members
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  (* The primary is killed and restarted mid-test; track its live
     handles so the teardown joins the final incarnation. *)
  let prim_cache = ref None and prim_thread = ref None in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Option.iter Thread.join !prim_thread;
      Service.close cache_a;
      Service.close cache_b;
      Option.iter Service.close !prim_cache)
    (fun () ->
      let c = Client.connect_unix router_sock in
      let req2 = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
      let r2 = request_ok c req2 in
      let bytes2 = analysis_bytes r2 in
      let fp2 =
        match Sink.member "fingerprint" r2 with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      let ring = Ring.create members in
      let primary = Option.get (Ring.owner ring fp2) in
      stop_endpoint primary;
      Thread.join (if primary = sock_a then th_a else th_b);
      wait_until ~what:"prober marking the primary down" (fun () ->
          member_state (request_ok c Protocol.stats_request) primary
          = Some "down");
      (* A compute while an owner is Down parks a hint instead of a
         copy; the client still gets its answer. *)
      let req3 = Protocol.construction_request ~name:"gworst-bliss" ~k:3 () in
      let r3 = request_ok c req3 in
      let bytes3 = analysis_bytes r3 in
      let fp3 =
        match Sink.member "fingerprint" r3 with
        | Some (Sink.Str s) -> s
        | _ -> Alcotest.fail "fingerprint missing"
      in
      Alcotest.(check bool) "hint parked while the owner is down" true
        (Option.value ~default:0
           (get_int "hints" (request_ok c Protocol.stats_request))
        >= 1);
      (* Restart the primary, empty: no store, no cache. *)
      let name = Filename.chop_suffix (Filename.basename primary) ".sock" in
      let _, cache', th' = start_shard ~dir ~name in
      prim_cache := Some cache';
      prim_thread := Some th';
      (* Recovery must deliver the parked write.  Poll with [pull] —
         it never computes, so it cannot mask an undelivered hint. *)
      let holds fp expected_bytes =
        match
          let d = Client.connect_unix primary in
          Fun.protect
            ~finally:(fun () -> Client.close d)
            (fun () -> Client.request d (Protocol.pull_request [ fp ]))
        with
        | Ok resp when Protocol.is_ok resp -> (
          match Protocol.entries_of resp with
          | Ok [ e ] -> Sink.to_string e.Store.body = expected_bytes
          | _ -> false)
        | _ -> false
      in
      wait_until ~what:"hint drain delivering the missed write" (fun () ->
          holds fp3 bytes3);
      wait_until ~what:"the hint log to empty" (fun () ->
          Option.value ~default:(-1)
            (get_int "hints" (request_ok c Protocol.stats_request))
          = 0);
      Alcotest.(check bool) "repairs counted" true
        (counter (request_ok c Protocol.stats_request) "repairs" >= 1);
      (* The pre-crash key had no hint (it was written while both owners
         were up) and was lost with the primary's memory: only the
         anti-entropy loop can bring it back. *)
      wait_until ~what:"anti-entropy converging the lost key" (fun () ->
          holds fp2 bytes2);
      (* And the converged copies serve: cached, byte-identical. *)
      let d = Client.connect_unix primary in
      List.iter
        (fun (req, bytes) ->
          let r = request_ok d req in
          Alcotest.(check (option bool)) "restarted primary answers cached"
            (Some true) (get_bool "cached" r);
          Alcotest.(check string) "restarted primary byte-identical" bytes
            (analysis_bytes r))
        [ (req2, bytes2); (req3, bytes3) ];
      Client.close d;
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

(* SIGHUP members-file reloads racing the prober, the anti-entropy
   loop, and live traffic: answers stay byte-identical through every
   flip, nothing deadlocks, and the final membership matches the file. *)
let test_sighup_reload_race () =
  let dir = Filename.temp_file "bi_hup" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" in
  let members_file = Filename.concat dir "members" in
  let write_members members =
    let tmp = members_file ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc (String.concat "\n" members);
    close_out oc;
    Sys.rename tmp members_file
  in
  write_members [ sock_a ];
  let router_sock = Filename.concat dir "router.sock" in
  let config =
    {
      Router.default_config with
      replicas = 2;
      quorum = 1;
      front_capacity = 1;
      probe_interval_s = 0.02;
      repair_interval_ticks = 1;
      shard_timeout_s = 5.;
    }
  in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~members_file ~config ~members:[ sock_a ]
          (Bi_serve.Lineserver.Unix_socket router_sock))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router;
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b)
    (fun () ->
      let c = Client.connect_unix router_sock in
      let req2 = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
      let req3 = Protocol.construction_request ~name:"gworst-bliss" ~k:3 () in
      let bytes2 = analysis_bytes (request_ok c req2) in
      let bytes3 = analysis_bytes (request_ok c req3) in
      let hup () = Unix.kill (Unix.getpid ()) Sys.sighup in
      silencing_stderr (fun () ->
          (* Flip the membership under load.  The 1-slot front cache and
             the alternating keys force every read through the routing
             path mid-reload; determinism makes the answers
             byte-identical whichever member serves them. *)
          for i = 1 to 12 do
            write_members
              (if i mod 2 = 0 then [ sock_a ] else [ sock_a; sock_b ]);
            hup ();
            let req, bytes = if i mod 2 = 0 then (req2, bytes2) else (req3, bytes3) in
            Alcotest.(check string)
              (Printf.sprintf "answer %d byte-identical under reload" i)
              bytes
              (analysis_bytes (request_ok c req));
            Thread.delay 0.03
          done;
          (* Settle on both members: the newcomer must be probed up and
             the membership must reflect exactly the file. *)
          write_members [ sock_a; sock_b ];
          hup ();
          wait_until ~what:"reloaded member probed up" (fun () ->
              member_state (request_ok c Protocol.stats_request) sock_b
              = Some "up"));
      let stats = request_ok c Protocol.stats_request in
      (match Sink.member "members" stats with
      | Some (Sink.Obj fields) ->
        Alcotest.(check (list string))
          "membership matches the file"
          (List.sort compare [ sock_a; sock_b ])
          (List.sort compare (List.map fst fields))
      | _ -> Alcotest.fail "members missing from stats");
      ignore (request_ok c Protocol.shutdown_request);
      Client.close c)

(* --- kept shard connections ------------------------------------------- *)

let with_router ~dir ~config ~members f =
  let router_sock = Filename.concat dir "router.sock" in
  let th_router =
    with_ready_thread (fun ~on_ready ->
        Router.run ~on_ready ~config ~members
          (Lineserver.Unix_socket router_sock))
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint router_sock;
      Thread.join th_router)
    (fun () ->
      let c = Client.connect_unix router_sock in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c))

let wait_all_up c members =
  wait_until ~what:"every member probed up" (fun () ->
      let stats = request_ok c Protocol.stats_request in
      List.for_all (fun m -> member_state stats m = Some "up") members)

(* Constructions whose routing key has [member] as its primary owner. *)
let keys_led_by members member =
  let ring = Ring.create members in
  List.concat_map
    (fun name ->
      List.filter_map
        (fun k ->
          match Registry.build name k with
          | Error _ -> None
          | Ok game ->
            let fp = Fingerprint.of_game game in
            if Ring.owner ring fp = Some member then
              Some (Protocol.construction_request ~name ~k (), fp)
            else None)
        [ 2; 3; 4; 5; 6 ])
    [ "gworst-bliss"; "gworst-curse" ]

let fingerprint_of resp =
  match Sink.member "fingerprint" resp with
  | Some (Sink.Str s) -> s
  | _ -> Alcotest.fail "fingerprint missing"

(* Routed requests over one client connection reuse the router's kept
   connection to each member: connections opened stay bounded by the
   members plus the probes made meanwhile (each probe connects afresh),
   however many requests are forwarded. *)
let test_connection_reuse () =
  let dir = Filename.temp_file "bi_reuse" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" in
  let members = [ sock_a; sock_b ] in
  let config =
    {
      Router.default_config with
      front_capacity = 1;
      probe_interval_s = 0.05;
      repair_interval_ticks = 0;
      shard_timeout_s = 5.;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b)
    (fun () ->
      with_router ~dir ~config ~members (fun c ->
          wait_all_up c members;
          let req2 = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
          let req3 = Protocol.construction_request ~name:"gworst-bliss" ~k:3 () in
          ignore (request_ok c req2);
          ignore (request_ok c req3);
          let before = request_ok c Protocol.stats_request in
          (* The 1-slot front cache and alternating keys forward every
             request. *)
          for i = 1 to 200 do
            ignore (request_ok c (if i mod 2 = 1 then req2 else req3))
          done;
          let after = request_ok c Protocol.stats_request in
          let delta key = counter after key - counter before key in
          Alcotest.(check bool) "every request forwarded" true
            (delta "forwards" >= 200);
          let bound = List.length members + delta "probes" in
          if delta "connects" > bound then
            Alcotest.failf "%d connections opened for 200 forwards (bound %d)"
              (delta "connects") bound))

(* A shard restarted on the same socket behind a kept connection: the
   dead connection is retried once on a fresh one, so the request is
   answered by its owner with no failover.  Probes are slow here, so no
   probe notices the restart first. *)
let test_restart_behind_kept_connection () =
  let dir = Filename.temp_file "bi_restart" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" in
  let sock_b, cache_b, th_b = start_shard ~dir ~name:"shard-b" in
  let members = [ sock_a; sock_b ] in
  let config =
    {
      Router.default_config with
      front_capacity = 1;
      probe_interval_s = 3.;
      repair_interval_ticks = 0;
      shard_timeout_s = 5.;
    }
  in
  let restarted = ref None in
  Fun.protect
    ~finally:(fun () ->
      stop_endpoint sock_a;
      stop_endpoint sock_b;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b;
      Option.iter
        (fun (cache, th) ->
          Thread.join th;
          Service.close cache)
        !restarted)
    (fun () ->
      with_router ~dir ~config ~members (fun c ->
          wait_all_up c members;
          let req2 = Protocol.construction_request ~name:"gworst-bliss" ~k:2 () in
          let r2 = request_ok c req2 in
          let fp2 = fingerprint_of r2 in
          let primary = Option.get (Ring.owner (Ring.create members) fp2) in
          (* Evict fp2 from the front cache, then restart its primary
             on the same socket, empty. *)
          ignore
            (request_ok c
               (Protocol.construction_request ~name:"gworst-bliss" ~k:3 ()));
          stop_endpoint primary;
          Thread.join (if primary = sock_a then th_a else th_b);
          let name = Filename.chop_suffix (Filename.basename primary) ".sock" in
          let _, cache', th' = start_shard ~dir ~name in
          restarted := Some (cache', th');
          let before = request_ok c Protocol.stats_request in
          let r = request_ok c req2 in
          let after = request_ok c Protocol.stats_request in
          let delta key = counter after key - counter before key in
          Alcotest.(check string) "answer byte-identical" (analysis_bytes r2)
            (analysis_bytes r);
          Alcotest.(check (option bool)) "recomputed by the restarted owner"
            (Some false) (get_bool "cached" r);
          Alcotest.(check int) "no failover" 0 (delta "failovers");
          Alcotest.(check bool) "a fresh connection replaced the dead one" true
            (delta "connects" >= 1)))

(* A stand-in shard that relays each line to a real shard, until
   [stalled] is set: then it holds every analysis request past the
   router's shard timeout and hangs up unanswered (health probes are
   still relayed).  [held] counts the requests it stalled. *)
let start_relay ~dir ~name ~backend =
  let socket = Filename.concat dir (name ^ ".sock") in
  let stalled = Atomic.make false and held = Atomic.make 0 in
  let ls = Lineserver.create (Lineserver.Unix_socket socket) in
  let relay oc line =
    let d = Client.connect_unix backend in
    let resp = Client.raw_request d line in
    Client.close d;
    match resp with
    | Ok resp -> (
      try
        output_string oc resp;
        output_char oc '\n';
        flush oc;
        `Continue
      with Sys_error _ -> `Close)
    | Error _ -> `Close
  in
  let handler oc line =
    match Protocol.parse_request line with
    | Ok { Protocol.query = Protocol.Health; _ } -> relay oc line
    | _ when Atomic.get stalled ->
      Atomic.incr held;
      Thread.delay 1.;
      `Close
    | _ -> relay oc line
  in
  let th = Thread.create (fun () -> Lineserver.run ~handler ls) () in
  (socket, stalled, held, ls, th)

(* A shard that stalls past [shard_timeout_s] on a kept connection is
   failed over after one timeout: the read timeout is not retried on a
   fresh connection, so the stalled shard sees the request once. *)
let test_stall_on_kept_connection () =
  let dir = Filename.temp_file "bi_stall" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_a, cache_a, th_a = start_shard ~dir ~name:"shard-a" in
  let backend, cache_b, th_b = start_shard ~dir ~name:"backend" in
  let sock_r, stalled, held, ls, th_r =
    start_relay ~dir ~name:"relay" ~backend
  in
  let members = [ sock_a; sock_r ] in
  (* Quorum 1: a fresh compute sends no replication put to the stalled
     member, so the only request it sees is the forwarded one. *)
  let config =
    {
      Router.default_config with
      quorum = 1;
      front_capacity = 1;
      probe_interval_s = 3.;
      repair_interval_ticks = 0;
      shard_timeout_s = 0.3;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Lineserver.initiate_shutdown ls;
      Thread.join th_r;
      stop_endpoint sock_a;
      stop_endpoint backend;
      Thread.join th_a;
      Thread.join th_b;
      Service.close cache_a;
      Service.close cache_b)
    (fun () ->
      with_router ~dir ~config ~members (fun c ->
          wait_all_up c members;
          let key_a, _ = List.hd (keys_led_by members sock_a) in
          let key_r, key_r2 =
            match keys_led_by members sock_r with
            | (k1, _) :: (k2, fp2) :: _ -> (k1, (k2, fp2))
            | _ -> Alcotest.fail "too few keys led by the relay"
          in
          (* Leave a kept connection to each member. *)
          ignore (request_ok c key_a);
          ignore (request_ok c key_r);
          let before = request_ok c Protocol.stats_request in
          Atomic.set stalled true;
          let r = request_ok c (fst key_r2) in
          Alcotest.(check string) "answered for the stalled member's key"
            (snd key_r2) (fingerprint_of r);
          let after = request_ok c Protocol.stats_request in
          Atomic.set stalled false;
          let delta key = counter after key - counter before key in
          Alcotest.(check int) "one failover" 1 (delta "failovers");
          Alcotest.(check int) "no connection opened but probes'"
            (delta "probes") (delta "connects");
          Alcotest.(check int) "the stalled member saw the request once" 1
            (Atomic.get held)))

let () =
  Alcotest.run "bi_router"
    [
      ( "ring",
        [
          QCheck_alcotest.to_alcotest ring_stable_under_addition;
          QCheck_alcotest.to_alcotest ring_stable_under_removal;
          QCheck_alcotest.to_alcotest ring_owner_sets;
          Alcotest.test_case "balance across 1k fingerprints" `Quick
            test_ring_balance;
          Alcotest.test_case "canonical under order and duplicates" `Quick
            test_ring_canonical;
        ] );
      ( "membership",
        [
          Alcotest.test_case "lifecycle up/suspect/down" `Quick
            test_membership_lifecycle;
          Alcotest.test_case "deterministic probe backoff" `Quick
            test_membership_backoff;
          Alcotest.test_case "reload preserves survivors" `Quick
            test_membership_reload;
          Alcotest.test_case "member list parsing" `Quick test_parse_members;
          QCheck_alcotest.to_alcotest parse_members_dedupes;
        ] );
      ( "repair",
        [
          Alcotest.test_case "hint log record/supersede/evict/take" `Quick
            test_hints_log;
          Alcotest.test_case "hint log survives restart" `Quick
            test_hints_durability;
          Alcotest.test_case "divergence rule" `Quick test_fsck_divergences;
        ] );
      ( "router",
        [
          Alcotest.test_case "end to end with failover" `Quick
            test_router_end_to_end;
          Alcotest.test_case "correlated concept through the router" `Quick
            test_router_correlated;
          Alcotest.test_case "read-repair parks hints on failover" `Quick
            test_read_repair_parks_hints;
          Alcotest.test_case "recovery drains hints and anti-entropy heals"
            `Quick test_recovery_drains_hints;
          Alcotest.test_case "SIGHUP reload races probes and repair" `Quick
            test_sighup_reload_race;
          Alcotest.test_case "forwards reuse one connection per member"
            `Quick test_connection_reuse;
          Alcotest.test_case "restart behind a kept connection" `Quick
            test_restart_behind_kept_connection;
          Alcotest.test_case "stall on a kept connection fails over once"
            `Quick test_stall_on_kept_connection;
        ] );
    ]
