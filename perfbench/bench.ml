(* Closed-loop benchmark of the analysis service.

   Starts real [bi serve] / [bi router] processes on Unix sockets in a
   private run directory, drives them from this one process over one or
   two connections (each waits for its reply before sending the next
   request), checks every answer byte for byte, and prints each
   metric by name with its unit; the last stdout line is one JSON
   object.  With [--trace 1] the same run is followed by an in-process
   replay of its op stream with spans around each layer's calls, which
   gives the per-layer metrics.  Usage:

     bench.exe --bi PATH --workload shard-hit|routed-mix|cold-solve
               --seed N --seconds S --trace 0|1 *)

open Perfbench
module Sink = Bi_engine.Sink
module Client = Bi_serve.Client
module Protocol = Bi_serve.Protocol
module Service = Bi_cache.Service
module Lru = Bi_cache.Lru
module Ring = Bi_router.Ring

let now = Unix.gettimeofday

(* The machine this benchmark was defined on has two cores: cold-solve
   shards run two solver domains, and no workload drives more than two
   connections.  run.py keeps the whole benchmark on one of the two
   CPUs; its header says why. *)
let nproc = 2

(* --- per-phase accounting --------------------------------------------- *)

type phase = {
  name : string;
  lock : Mutex.t;
  mutable sent : int;
  codes : (string, int) Hashtbl.t;
}

let phase name = { name; lock = Mutex.create (); sent = 0; codes = Hashtbl.create 8 }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let tally ph code =
  with_lock ph.lock (fun () ->
      ph.sent <- ph.sent + 1;
      Hashtbl.replace ph.codes code (1 + Option.value (Hashtbl.find_opt ph.codes code) ~default:0))

(* A reply tallied "ok" by its response code that then failed its
   answer check. *)
let reclassify ph code =
  with_lock ph.lock (fun () ->
      Hashtbl.replace ph.codes "ok" (Hashtbl.find ph.codes "ok" - 1);
      Hashtbl.replace ph.codes code (1 + Option.value (Hashtbl.find_opt ph.codes code) ~default:0))

let succeeded ph = Option.value (Hashtbl.find_opt ph.codes "ok") ~default:0
let failed ph = ph.sent - succeeded ph

let print_phase ph =
  let codes =
    Hashtbl.fold (fun c n acc -> Printf.sprintf "%s=%d" c n :: acc) ph.codes []
    |> List.sort compare |> String.concat " "
  in
  Printf.printf "phase %-8s sent %d  succeeded %d  failed %d  [%s]\n" ph.name ph.sent
    (succeeded ph) (failed ph) codes

let response_code line =
  match Sink.of_string line with
  | Ok j -> Option.value (Protocol.response_code j) ~default:"malformed"
  | Error _ -> "malformed"

(* A response that is not the expected body: its code when the server
   refused, "wrong" when it answered something else. *)
let failure_code line = match response_code line with "ok" -> "wrong" | c -> c

let transport_code = "transport"

(* --- closed-loop load ------------------------------------------------- *)

type outcome = {
  key : Keys.key;
  miss : bool;
  latency : float;
  resp : (string, Client.failure) result;
}

(* [conns] workers, one connection each; a worker asks [take] for its
   next request only after the previous reply arrived. *)
let drive ~conns ~socket ~take ~on_done =
  let error = ref None in
  let worker w () =
    try
      let c = ref (Client.connect_unix ~timeout_s:120. socket) in
      let rec loop () =
        match take w with
        | None -> ()
        | Some (key, miss) ->
          let t0 = now () in
          let resp = Client.raw_request !c key.Keys.line in
          let latency = now () -. t0 in
          on_done { key; miss; latency; resp };
          (match resp with
          | Error _ ->
            Client.close !c;
            c := Client.connect_unix ~timeout_s:120. socket
          | Ok _ -> ());
          loop ()
      in
      Fun.protect ~finally:(fun () -> Client.close !c) loop
    with e -> error := Some e
  in
  List.iter Thread.join (List.init conns (fun w -> Thread.create (worker w) ()));
  Option.iter raise !error

(* --- processes --------------------------------------------------------- *)

type cluster = { shards : Procs.proc list; router : Procs.proc option; entry : string }

let procs c = c.shards @ Option.to_list c.router

let spawn_shards ~bi ~prefix ~jobs ?(extra = []) n =
  let ps =
    List.init n (fun i ->
        let name = Printf.sprintf "%ss%d" prefix i in
        let socket = "./" ^ name ^ ".sock" in
        Procs.spawn ~bi ~name ~socket
          ([ "serve"; "--socket"; socket; "--cache"; name ^ "-cache.jsonl"; "--metrics-out";
             name ^ "-metrics.json"; "--shard-id"; name; "--jobs"; string_of_int jobs ]
          @ extra))
  in
  List.iter (fun p -> ignore (Procs.await_ready p)) ps;
  ps

let members_up (h : Sink.json) =
  match Sink.member "members" h with
  | Some (Sink.Obj (_ :: _ as ms)) -> List.for_all (fun (_, s) -> s = Sink.Str "up") ms
  | _ -> false

(* The router's prober marks members up on its own schedule; poll its
   [health] verb until every member reports up. *)
let spawn_router ~bi ~prefix ~members ~args =
  let name = prefix ^ "router" in
  let socket = "./" ^ name ^ ".sock" in
  let p =
    Procs.spawn ~bi ~name ~socket
      ([ "router"; "--socket"; socket; "--members"; String.concat "," members; "--metrics-out";
         name ^ "-metrics.json" ]
      @ args)
  in
  let deadline = now () +. 30. in
  let rec wait h =
    if not (members_up h) then begin
      if now () > deadline then failwith "router members never all reported up";
      Unix.sleepf 0.002;
      wait (Procs.request_json socket Protocol.health_request)
    end
  in
  wait (Procs.await_ready p);
  p

let shutdown c = List.iter Procs.shutdown (List.rev (procs c))

(* --- warm-up ----------------------------------------------------------- *)

(* Each key twice on one connection: the first reply is the fresh
   compute, the second the body every later hit must repeat.  Both are
   checked against the reference after the window. *)
type warm = { first : (string, string) Hashtbl.t; recorded : (string, string) Hashtbl.t }

let warm ~ph socket keys =
  let w = { first = Hashtbl.create 64; recorded = Hashtbl.create 64 } in
  let c = Client.connect_unix ~timeout_s:120. socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.iter
        (fun (k : Keys.key) ->
          List.iter
            (fun tbl ->
              match Client.raw_request c k.Keys.line with
              | Ok line ->
                tally ph (response_code line);
                Hashtbl.replace tbl k.Keys.id line
              | Error f -> failwith ("warm-up: " ^ Client.failure_to_string f))
            [ w.first; w.recorded ])
        keys);
  w

(* --- measured-window bookkeeping --------------------------------------- *)

type snapshot = { stats : Sink.json list; ticks : int list }

let snapshot c =
  { stats = List.map Procs.stats (procs c); ticks = List.map Procs.cpu_ticks (procs c) }

(* Counter deltas summed over the measured windows, keyed
   "server.<field>" and "router.<field>" as the [stats] verbs name them,
   plus "server.cpu" / "router.cpu" in clock ticks. *)
type counts = {
  deltas : (string, int) Hashtbl.t;
  mutable max_queue : int;  (* shards' high-water mark at window end *)
  mutable hist : int array;  (* shards' handling-time histogram *)
  mutable peak_kb : int;
}

let counts () = { deltas = Hashtbl.create 16; max_queue = 0; hist = [||]; peak_kb = 0 }
let delta acc name = Option.value (Hashtbl.find_opt acc.deltas name) ~default:0
let add acc name v = Hashtbl.replace acc.deltas name (delta acc name + v)
let server_counters = [ "hits"; "misses"; "coalesced"; "overloaded" ]
let router_counters = [ "front_hits"; "forwards"; "failovers"; "replications"; "repairs"; "probes" ]

let latency_histogram j =
  match Option.bind (Sink.member "server" j) (Sink.member "latency_log2_us") with
  | Some l -> Stats.histogram_of_json l
  | None -> [||]

(* Add the deltas between two snapshots of [c] (taken around a measured
   window) to [acc]. *)
let accumulate acc c before after =
  List.iteri
    (fun i (p : Procs.proc) ->
      let b = List.nth before.stats i and a = List.nth after.stats i in
      let is_router = match c.router with Some q -> q == p | None -> false in
      let role, fields =
        if is_router then ("router", router_counters) else ("server", server_counters)
      in
      add acc (role ^ ".cpu") (List.nth after.ticks i - List.nth before.ticks i);
      List.iter
        (fun f -> add acc (role ^ "." ^ f) (Keys.int_at [ role; f ] a - Keys.int_at [ role; f ] b))
        fields;
      acc.peak_kb <- max acc.peak_kb (Procs.vm_hwm_kb p);
      if not is_router then begin
        acc.max_queue <- max acc.max_queue (Keys.int_at [ "server"; "max_queue_depth" ] a);
        acc.hist <-
          Stats.histogram_sum acc.hist
            (Stats.histogram_delta ~before:(latency_histogram b) ~after:(latency_histogram a))
      end)
    (procs c)

(* --- one run ----------------------------------------------------------- *)

type config = {
  bi : string;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  clk_tck : int;
  trace_out : string;
}

type sent = { k : Keys.key; miss : bool; latency : float; done_at : float }

(* A stretch of the run the end-to-end figures are taken over: the
   requests done in [t0, t1), [secs] of measured time and the program
   processes' CPU ticks in it.  A two-second slice of a streaming
   window, or one cold-solve round, whose batches are measured apart
   from the shard starts between them. *)
type slice = { t0 : float; t1 : float; secs : float; ticks : int }

type run = {
  cfg : config;
  setup : phase;
  window : phase;
  lock : Mutex.t;
  mutable sequence : sent list;  (* window requests, newest first *)
  mutable slices : slice list;  (* newest first *)
  mutable misses : (Keys.key * int * string) list;
      (* replies to first-seen keys, checked after the window: key,
         batch index, reply *)
  mutable setup_times : float list;
  mutable warms : warm list;  (* every set-up's warm-up replies *)
  mutable window_s : float;  (* measured time, summed over windows *)
  mutable last_start : float;  (* start of the last measured window *)
  acc : counts;
  mutable work_keys : Keys.key list;  (* keys whose payload counters are summed *)
  replies : (string, string) Hashtbl.t;  (* id -> a cached reply, for work counters *)
}

(* A request that fails counts as infinitely slow. *)
let note r (o : outcome) ~ok =
  let latency = if ok then o.latency else infinity in
  let s = { k = o.key; miss = o.miss; latency; done_at = now () } in
  with_lock r.lock (fun () -> r.sequence <- s :: r.sequence)

(* A hit must repeat the body set-up recorded for its key. *)
let on_hit r (recorded : (string, string) Hashtbl.t) o =
  let code =
    match o.resp with
    | Error _ -> transport_code
    | Ok line ->
      if Hashtbl.find_opt recorded o.key.Keys.id = Some line then "ok" else failure_code line
  in
  tally r.window code;
  note r o ~ok:(code = "ok")

(* A first-seen key's reply is kept and checked against the in-process
   reference once the window is over. *)
let on_miss r ~batch o =
  match o.resp with
  | Error _ ->
    tally r.window transport_code;
    note r o ~ok:false
  | Ok line ->
    with_lock r.lock (fun () -> r.misses <- (o.key, batch, line) :: r.misses);
    note r o ~ok:true

(* Two seconds: long enough that a slice holds the 1000 requests its
   p99 needs even when the routed workload runs at a third of its usual
   rate on a busy host. *)
let slice_s = 2.
let total_ticks c = List.fold_left (fun acc p -> acc + Procs.cpu_ticks p) 0 (procs c)

(* Drive one measured window, add its time and counter deltas to the
   run's and return it as slices, oldest first.  With [~sliced], a
   sampler thread reads the processes' CPU time every [slice_s], cutting
   the window into slices; otherwise the window is one slice. *)
let timed_window ?(sliced = false) r c ~conns ~socket ~take ~on_done =
  let before = snapshot c in
  let t0 = now () in
  (* The sampler sleeps until the next boundary or until the window
     ends, whichever is first, so it wakes once per slice. *)
  let marks = ref [] and stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let rec sample i =
    let next = t0 +. (float_of_int i *. slice_s) in
    match Unix.select [ stop_r ] [] [] (Float.max 0. (next -. now ())) with
    | [], _, _ ->
      marks := (now (), total_ticks c) :: !marks;
      sample (i + 1)
    | _ -> ()
  in
  let sampler = if sliced then Some (Thread.create sample 1) else None in
  Fun.protect
    ~finally:(fun () -> Unix.close stop_r; Unix.close stop_w)
    (fun () ->
      Fun.protect
        ~finally:(fun () ->
          ignore (Unix.write_substring stop_w "x" 0 1);
          Option.iter Thread.join sampler)
        (fun () -> drive ~conns ~socket ~take ~on_done));
  let t1 = Float.succ (now ()) in
  let after = snapshot c in
  r.window_s <- r.window_s +. (t1 -. t0);
  r.last_start <- t0;
  accumulate r.acc c before after;
  let sum l = List.fold_left ( + ) 0 l in
  let points = ((t0, sum before.ticks) :: List.rev !marks) @ [ (t1, sum after.ticks) ] in
  let rec cut = function
    | (ta, ca) :: ((tb, cb) :: _ as rest) ->
      (* A stub shorter than half a slice at the end is too short to rate. *)
      if tb -. ta < slice_s /. 2. && sliced then cut rest
      else { t0 = ta; t1 = tb; secs = tb -. ta; ticks = cb - ca } :: cut rest
    | _ -> []
  in
  cut points

(* Stream requests until the deadline: [next] picks each one. *)
let until_deadline r ~rng_lock ~next =
  let deadline = now () +. r.cfg.seconds in
  fun _ -> if now () >= deadline then None else Some (with_lock rng_lock next)

(* --- workloads ---------------------------------------------------------- *)

let cons_names = [ "anshelevich"; "gworst-bliss"; "gworst-curse" ]

(* Set up [times] times and keep the last; set-up time is the median.
   Every set-up's warm-up replies are kept for checking. *)
let repeated_setup r ~times f =
  let rec go i =
    let t0 = now () in
    let c, w = f (Printf.sprintf "a%d-" i) in
    r.setup_times <- (now () -. t0) :: r.setup_times;
    r.warms <- w :: r.warms;
    if i < times then begin
      shutdown c;
      go (i + 1)
    end
    else (c, w)
  in
  go 1

let setup_repeats = 9

(* shard-hit: one shard whose cache holds a seeded key set spanning the
   exhaustive, certified and cce/comm tiers, constructions and inline
   games alike; every measured request is a cache hit.  One connection:
   a second one adds no throughput on this path and makes the figures
   hinge on how the two client threads and the server's threads happen
   to be scheduled; concurrency is measured by the other workloads.

   The key mix is an assumption, not measured traffic: nothing in the
   repo records what callers ask for.  Each tier gets the same number of
   random games, and the constructions span every paper family, so no
   tier's hit path dominates the figures.  Hit costs differ widely from
   game to game; [games_per_tier] is large enough that the mean cost of
   a seed's games, and so the figures, hardly depends on the seed. *)
let games_per_tier = 48

let shard_hit r rng =
  let seen = Hashtbl.create 64 in
  let cons =
    Keys.constructions Keys.Exh ~names:cons_names ~ks:[ 2; 3; 4; 5 ]
    @ Keys.constructions Keys.Cert ~names:cons_names ~ks:[ 8; 16 ]
    @ Keys.constructions Keys.Cce ~names:cons_names ~ks:[ 2; 3 ]
    @ Keys.constructions Keys.Comm ~names:cons_names ~ks:[ 2; 3 ]
  in
  List.iter (fun (k : Keys.key) -> Hashtbl.replace seen k.Keys.id ()) cons;
  let inline =
    List.concat_map
      (fun t -> Keys.fresh_random rng ~seen t games_per_tier)
      [ Keys.Exh; Keys.Cert; Keys.Cce; Keys.Comm ]
  in
  let keys = Keys.shuffle rng (cons @ inline) in
  let c, w =
    repeated_setup r ~times:setup_repeats (fun prefix ->
        let shard = spawn_shards ~bi:r.cfg.bi ~prefix ~jobs:nproc 1 in
        let c = { shards = shard; router = None; entry = (List.hd shard).Procs.socket } in
        (c, warm ~ph:r.setup c.entry keys))
  in
  let arr = Array.of_list keys in
  let rng_lock = Mutex.create () in
  let next () = (arr.(Random.State.int rng (Array.length arr)), false) in
  r.slices <-
    List.rev
      (timed_window ~sliced:true r c ~conns:1 ~socket:c.entry
         ~take:(until_deadline r ~rng_lock ~next)
         ~on_done:(on_hit r w.recorded));
  r.work_keys <- keys;
  (c, keys)

(* routed-mix: a router over three shards (2 replicas, quorum 2) whose
   front cache holds half of the front-cacheable warm keys, so a steady
   share of hits is forwarded; certified and correlated keys always
   skip the front cache today.  A seeded share of requests are
   first-seen small exhaustive games, whose computes trigger
   synchronous replication writes beside the reads.

   The mix is an assumption, not measured traffic: nothing in the repo
   records what callers ask for.  The values are picked so each path
   this workload exists for carries a share large enough to show:
   - [front_capacity] is half of the 147 front-cacheable warm keys (15
     exhaustive constructions, 132 exhaustive games), so front hits and
     forwarded hits each carry about half of that traffic;
   - 46 certified and 46 correlated keys (constructions and games) make
     two fifths of the warm keys the kind that always skips the front
     cache;
   - [fresh_share] keeps the window read-dominated, as warm traffic is,
     while still giving thousands of computes and their replication
     puts per run.
   Hit costs differ widely from game to game; the game counts are large
   enough that the mean cost of a seed's warm set hardly depends on the
   seed (with a quarter as many, two seeds stayed 10% apart over
   repeated runs). *)
let front_capacity = 74
let fresh_share = 0.05

let routed_mix r rng =
  let seen = Hashtbl.create 64 in
  let cons =
    Keys.constructions Keys.Exh ~names:cons_names ~ks:[ 2; 3; 4; 5; 6 ]
    @ Keys.constructions Keys.Cert ~names:cons_names ~ks:[ 8; 12 ]
    @ Keys.constructions Keys.Cce ~names:cons_names ~ks:[ 3 ]
    @ Keys.constructions Keys.Comm ~names:cons_names ~ks:[ 3 ]
  in
  List.iter (fun (k : Keys.key) -> Hashtbl.replace seen k.Keys.id ()) cons;
  let inline =
    List.concat_map
      (fun (t, n) -> Keys.fresh_random rng ~seen t n)
      [ (Keys.Exh, 132); (Keys.Cert, 40); (Keys.Cce, 20); (Keys.Comm, 20) ]
  in
  let keys = Keys.shuffle rng (cons @ inline) in
  let c, w =
    repeated_setup r ~times:setup_repeats (fun prefix ->
        let shards = spawn_shards ~bi:r.cfg.bi ~prefix ~jobs:1 3 in
        let router =
          spawn_router ~bi:r.cfg.bi ~prefix
            ~members:(List.map (fun (p : Procs.proc) -> p.Procs.socket) shards)
            ~args:[ "--front-capacity"; string_of_int front_capacity ]
        in
        let c = { shards; router = Some router; entry = router.Procs.socket } in
        (c, warm ~ph:r.setup c.entry keys))
  in
  let arr = Array.of_list keys in
  let rng_lock = Mutex.create () in
  let next () =
    if Random.State.float rng 1. < fresh_share then
      (List.hd (Keys.fresh_random rng ~seen Keys.Exh 1), true)
    else (arr.(Random.State.int rng (Array.length arr)), false)
  in
  r.slices <-
    List.rev
      (timed_window ~sliced:true r c ~conns:nproc ~socket:c.entry
         ~take:(until_deadline r ~rng_lock ~next)
         ~on_done:(fun o -> if o.miss then on_miss r ~batch:0 o else on_hit r w.recorded o));
  r.work_keys <- keys;
  (c, keys)

(* cold-solve: the time to exact answers on fresh shards (empty cache,
   store file, [--jobs 2 --max-concurrent 1]).  The run's work is fixed
   in rounds, not in seconds, so how fast the program solves never
   changes what is measured.  A round is the paper constructions (the
   same in every round) plus [round_games] seeded random games: at
   least 1000 distinct keys, so a round's p99 has 10 samples beyond it.
   It is split into [batches_per_round] batches, constructions and games
   dealt out in a fixed order, so every round's batches hold the same
   constructions.  Each batch runs on its own fresh shard, whose
   start-up is the set-up time; within a batch the order is seeded, and
   a seeded share of keys is sent on both connections at once, so
   requests coalesce and the second leader queues behind the single
   compute slot.

   The share is an assumption, not measured traffic: nothing in the
   repo records how often callers repeat a cold key.  [pair_share] is
   picked so a round holds about 100 pairs, enough for coalescing and
   admission waits to reach the p99. *)
let pair_share = 0.1
let batches_per_round = 10
let round_games = 950

(* Rounds per run: a round took about [round_s] on the 2-core machine
   the benchmark was defined on, so the measured time is near
   [seconds]; at least 3 rounds give the median a middle. *)
let round_s = 2.5
let cold_rounds seconds = max 3 (int_of_float (Float.round (seconds /. round_s)))

let cold_constructions =
  Keys.constructions Keys.Exh ~names:cons_names ~ks:[ 4; 5; 6; 7 ]
  @ [ Keys.make (Keys.Cons ("affine", 2)) Keys.Exh ]
  @ Keys.constructions Keys.Cert ~names:cons_names ~ks:[ 8; 12; 16; 20; 24; 28; 32 ]
  @ List.concat_map
      (fun t ->
        Keys.constructions t ~names:cons_names ~ks:[ 2; 3; 4; 5 ]
        @ [ Keys.make (Keys.Cons ("anshelevich", 6)) t ])
      [ Keys.Cce; Keys.Comm ]

(* [seen] spans the whole run: two encodings of one game share a cache
   key but not witness indices, so a key must mean one encoding. *)
let cold_round rng ~seen =
  let inline = Keys.fresh_random rng ~seen Keys.Exh round_games in
  let deal j l = List.filteri (fun i _ -> i mod batches_per_round = j) l in
  List.init batches_per_round (fun j ->
      Keys.shuffle rng (deal j cold_constructions @ deal j inline)
      |> List.map (fun k -> (k, Random.State.float rng 1. < pair_share)))

let cold_solve r rng =
  let seen = Hashtbl.create 4096 in
  List.iter (fun (k : Keys.key) -> Hashtbl.replace seen k.Keys.id ()) cold_constructions;
  let batches = List.concat (List.init (cold_rounds r.cfg.seconds) (fun _ -> cold_round rng ~seen)) in
  (* Work counters cover one round: every construction once. *)
  r.work_keys <- List.concat_map (List.map fst) (List.filteri (fun i _ -> i < batches_per_round) batches);
  let last = ref None and round = ref [] in
  List.iteri
    (fun b batch ->
      let t0 = now () in
      let shard =
        spawn_shards ~bi:r.cfg.bi ~prefix:(Printf.sprintf "b%d-" b) ~jobs:nproc
          ~extra:[ "--max-concurrent"; "1" ] 1
      in
      r.setup_times <- (now () -. t0) :: r.setup_times;
      let c = { shards = shard; router = None; entry = (List.hd shard).Procs.socket } in
      (* A pair is handed to both connections: the one that takes it
         sends at once, the other as soon as its own request returns. *)
      let queue = ref batch and mailbox = Array.make nproc None in
      let qlock = Mutex.create () in
      let take w =
        with_lock qlock (fun () ->
            match mailbox.(w) with
            | Some k ->
              mailbox.(w) <- None;
              Some (k, true)
            | None -> (
              match !queue with
              | [] -> None
              | (k, pair) :: rest ->
                queue := rest;
                if pair then mailbox.(1 - w) <- Some k;
                Some (k, true)))
      in
      let window = timed_window r c ~conns:nproc ~socket:c.entry ~take ~on_done:(on_miss r ~batch:b) in
      round := window @ !round;
      if b mod batches_per_round = batches_per_round - 1 then begin
        (* The round's batch windows, newest first, as one slice. *)
        let oldest = List.nth !round (List.length !round - 1) and newest = List.hd !round in
        r.slices <-
          {
            t0 = oldest.t0;
            t1 = newest.t1;
            secs = List.fold_left (fun a sl -> a +. sl.secs) 0. !round;
            ticks = List.fold_left (fun a sl -> a + sl.ticks) 0 !round;
          }
          :: r.slices;
        round := []
      end;
      Option.iter (fun (c, _) -> shutdown c) !last;
      last := Some (c, List.map fst batch))
    batches;
  match !last with
  | Some (c, keys) -> (c, keys)
  | None -> failwith "cold-solve: no batch ran"

(* --- answer checks ------------------------------------------------------ *)

(* Reference answers for every distinct key the run sent, solved and
   checked in-process (traced spans in a traced run). *)
let references tr keys =
  let refs = Hashtbl.create 256 and ids = Hashtbl.create 256 in
  List.iteri
    (fun i (k : Keys.key) ->
      if not (Hashtbl.mem refs k.Keys.id) then begin
        Hashtbl.replace ids (-1 - i) k.Keys.id;
        Hashtbl.replace refs k.Keys.id (k, Layers.reference tr ~op:(-1 - i) k)
      end)
    keys;
  (refs, ids)

(* Print where a reply first departs from the expected body. *)
let report_wrong id ~expected line =
  let n = min (String.length expected) (String.length line) in
  let rec first i = if i < n && expected.[i] = line.[i] then first (i + 1) else i in
  let i = first 0 in
  let around s = String.sub s (max 0 (i - 40)) (min 120 (String.length s - max 0 (i - 40))) in
  Printf.eprintf "wrong answer for %s at byte %d:\n  expected ...%s\n  got      ...%s\n%!" id i
    (around expected) (around line)

let check_answers r refs =
  let expected id ~cached =
    let k, a = Hashtbl.find refs id in
    Keys.response k a ~cached
  in
  (* Set-up: in every set-up, the fresh compute, then the recorded hit
     body. *)
  let check_setup ~cached tbl =
    Hashtbl.iter
      (fun id line ->
        let e = expected id ~cached in
        if line <> e then begin
          report_wrong id ~expected:e line;
          (* A refusal was already tallied under its own code. *)
          if response_code line = "ok" then reclassify r.setup "wrong"
        end;
        Hashtbl.replace r.replies id line)
      tbl
  in
  List.iter
    (fun w ->
      check_setup ~cached:false w.first;
      check_setup ~cached:true w.recorded)
    r.warms;
  (* Replies to first-seen keys, grouped per batch: exactly one fresh
     compute per key and batch, every other reply a cached one. *)
  let groups = Hashtbl.create 256 in
  List.iter
    (fun ((k : Keys.key), b, line) ->
      Hashtbl.replace groups (k.Keys.id, b)
        (line :: Option.value (Hashtbl.find_opt groups (k.Keys.id, b)) ~default:[]))
    r.misses;
  Hashtbl.iter
    (fun (id, _) lines ->
      let fresh = expected id ~cached:false and cached = expected id ~cached:true in
      let n_fresh = List.length (List.filter (( = ) fresh) lines) in
      List.iter
        (fun line ->
          if line = fresh && n_fresh = 1 then tally r.window "ok"
          else if line = cached && n_fresh = 1 then tally r.window "ok"
          else begin
            report_wrong id ~expected:fresh line;
            tally r.window (failure_code line)
          end)
        lines;
      if not (Hashtbl.mem r.replies id) then Hashtbl.replace r.replies id fresh)
    groups

let work_counters r =
  List.fold_left
    (fun acc (k : Keys.key) ->
      match Hashtbl.find_opt r.replies k.Keys.id with
      | Some line -> Keys.add_work acc (Keys.work_of_response line)
      | None -> acc)
    Keys.no_work
    (List.sort_uniq (fun (a : Keys.key) b -> compare a.Keys.id b.Keys.id) r.work_keys)

(* --- traced replay ------------------------------------------------------ *)

let replay_cap = 1000

type layer_times = {
  tr : Trace.t;
  mutable untraced_hit_path : float;  (* summed wall time, same ops *)
  mutable traced_hit_path : float;
  unloaded : (string, float) Hashtbl.t;  (* id -> unloaded reply latency *)
  mutable overhead_sum : float;  (* routed minus direct, same key *)
  mutable routed_ops : int;
  mutable router_ticks : int;  (* router CPU while replaying *)
  probe : bool;  (* the router above is a probe: the window had none *)
}

let send c line =
  match Client.raw_request c line with
  | Ok l -> l
  | Error f -> failwith ("replay: " ^ Client.failure_to_string f)

(* One exchange on a fresh connection, as the router does per forward. *)
let send_once addr line =
  let cl = Client.make ~timeout_s:120. addr in
  Fun.protect ~finally:(fun () -> Client.close cl) (fun () -> send cl line)

let expect_same what id ~expected got =
  if got <> expected then begin
    report_wrong id ~expected got;
    failwith (what ^ " differs from the reference for " ^ id)
  end

(* Replays the requests of the last measured stretch (whose processes
   still run, every key now cached) with a span around each layer call:
   the shard's hit path in-process, the exchange with the key's shard,
   the router's ring and front-cache lookups, a forward and a replication
   put on fresh connections, and the same request through a router.
   Workloads without a router in their window get a probe router over
   their shard for this. *)
let replay r c refs tr =
  let lt =
    {
      tr; untraced_hit_path = 0.; traced_hit_path = 0.; unloaded = Hashtbl.create 256;
      overhead_sum = 0.; routed_ops = 0; router_ticks = 0; probe = c.router = None;
    }
  in
  let off = Trace.create ~enabled:false in
  let ops =
    List.rev
      (List.filter_map (fun s -> if s.done_at >= r.last_start then Some s.k else None) r.sequence)
    |> List.filteri (fun i _ -> i < replay_cap)
  in
  (* In-process cache holding every reference answer, the front-cache
     LRU at the router's capacity, and a store-backed cache for inserts. *)
  let cache = Service.create ~capacity:100_000 () in
  let front = Lru.create ~capacity:front_capacity in
  Hashtbl.iter
    (fun id (k, a) ->
      Service.insert cache id (Layers.service_value a);
      Lru.add front id (Keys.response k a ~cached:true))
    refs;
  let store = Service.create ~capacity:100_000 ~store_path:"replay-store.jsonl" () in
  Hashtbl.iter
    (fun id (_, a) ->
      let v = Layers.service_value a in
      Trace.span tr ~op:0 "cache.insert" (fun () -> Service.insert store id v))
    refs;
  Service.close store;
  let members = List.map (fun (p : Procs.proc) -> p.Procs.socket) c.shards in
  let ring = Ring.create members in
  let direct = List.map (fun m -> (m, Client.connect_unix ~timeout_s:120. m)) members in
  let probe =
    match c.router with
    | Some _ -> None
    | None ->
      Some
        (spawn_router ~bi:r.cfg.bi ~prefix:"probe-" ~members
           ~args:[ "--replicas"; "1"; "--quorum"; "1" ])
  in
  let router = Option.get (if c.router = None then probe else c.router) in
  let routed = Client.connect_unix ~timeout_s:120. router.Procs.socket in
  let ticks0 = Procs.cpu_ticks router in
  let replay_op i (k : Keys.key) =
    let op = i + 1 and id = k.Keys.id in
    let k0, a = Hashtbl.find refs id in
    let hit = Keys.response k0 a ~cached:true in
    (* Tracing overhead: the same hit path with and without spans, after
       one untimed warm-up pass, in alternating order. *)
    ignore (Layers.hit_path off ~op cache k.Keys.line);
    let untraced () =
      let t0 = now () in
      ignore (Layers.hit_path off ~op cache k.Keys.line);
      lt.untraced_hit_path <- lt.untraced_hit_path +. (now () -. t0)
    in
    let traced () =
      let t0 = now () in
      let line = Trace.span tr ~op "op" (fun () -> Layers.hit_path tr ~op cache k.Keys.line) in
      lt.traced_hit_path <- lt.traced_hit_path +. (now () -. t0);
      expect_same "in-process hit path" id ~expected:hit line
    in
    if i mod 2 = 0 then (untraced (); traced ()) else (traced (); untraced ());
    let owner = List.hd (Ring.owners ring ~n:1 id) in
    (* A first-seen key need not be on this owner when the window ends:
       the router answers even when a replication put fails, and
       anti-entropy repairs the copy later.  One untimed request makes
       the owner hold it; its reply must be the reference, fresh or
       cached. *)
    let first = send (List.assoc owner direct) k.Keys.line in
    if first <> Keys.response k0 a ~cached:false then
      expect_same "replayed request" id ~expected:hit first;
    let t0 = now () in
    let got =
      Trace.span tr ~op "serve.exchange" (fun () -> send (List.assoc owner direct) k.Keys.line)
    in
    let direct_s = now () -. t0 in
    expect_same "replayed hit" id ~expected:hit got;
    ignore (Trace.span tr ~op "router.ring" (fun () -> Ring.owners ring ~n:2 id));
    ignore (Trace.span tr ~op "router.front_lookup" (fun () -> Lru.find front id));
    let addr = Client.Unix_path owner in
    Client.close (Trace.span tr ~op "router.connect" (fun () -> Client.make ~timeout_s:120. addr));
    ignore (Trace.span tr ~op "router.forward" (fun () -> send_once addr k.Keys.line));
    let kind, body =
      match Layers.service_value a with
      | Service.Analysis an -> ("analysis", Bi_cache.Codec.analysis_to_json an)
      | Service.Payload p -> ("payload", p)
    in
    let put = Sink.to_string (Protocol.put_request ~kind ~fingerprint:id body) in
    ignore (Trace.span tr ~op "router.replicate" (fun () -> send_once addr put));
    let t0 = now () in
    let via = Trace.span tr ~op "router.routed" (fun () -> send routed k.Keys.line) in
    let routed_s = now () -. t0 in
    expect_same "routed replay" id ~expected:hit via;
    lt.overhead_sum <- lt.overhead_sum +. (routed_s -. direct_s);
    lt.routed_ops <- lt.routed_ops + 1;
    (* Unloaded latency as the window's clients saw it: through the
       router where the window had one. *)
    if not (Hashtbl.mem lt.unloaded id) then
      Hashtbl.replace lt.unloaded id (if c.router = None then direct_s else routed_s)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, cl) -> Client.close cl) direct;
      Client.close routed;
      Option.iter Procs.shutdown probe)
    (fun () ->
      List.iteri replay_op ops;
      lt.router_ticks <- Procs.cpu_ticks router - ticks0);
  lt

(* --- reporting ---------------------------------------------------------- *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

(* Per-layer metrics from the replay's spans: self time (and minor
   words) per op that reached the span, or per call for the solver
   spans, which run once per distinct key. *)
let trace_metrics r (lt : layer_times) ids =
  let selfs = Trace.self_times (Trace.spans lt.tr) in
  let summary = Trace.summarize selfs in
  let op_sets = Hashtbl.create 32 in
  List.iter
    (fun ((s : Trace.span), _) -> Hashtbl.replace op_sets (s.Trace.name, s.Trace.op) ())
    selfs;
  let nops name = Hashtbl.fold (fun (n, _) () acc -> if n = name then acc + 1 else acc) op_sets 0 in
  let get name f =
    match Hashtbl.find_opt summary name with Some s -> f s | None -> 0.
  in
  let per_op name f = let n = nops name in if n = 0 then 0. else get name f /. float_of_int n in
  let us name = per_op name (fun s -> s.Trace.self_s *. 1e6) in
  let words name = per_op name (fun s -> s.Trace.words) in
  let call_us name =
    get name (fun s ->
        if s.Trace.count = 0 then 0. else s.Trace.self_s *. 1e6 /. float_of_int s.Trace.count)
  in
  let hit_path_us =
    List.fold_left (fun acc n -> acc +. us n) 0.
      [ "serve.parse"; "constructions.build"; "cache.fingerprint"; "cache.lookup"; "serve.encode" ]
  in
  (* Queue wait: a window request's latency minus the same key's
     unloaded latency from the replay, minus its in-process solve when
     it computed. *)
  let solve_spans = [ "reference.build"; "ncs.solve"; "certify.solve"; "correlated.analyze" ] in
  let solve = Hashtbl.create 256 in
  List.iter
    (fun ((s : Trace.span), self) ->
      match Hashtbl.find_opt ids s.Trace.op with
      | Some id when List.mem s.Trace.name solve_spans ->
        Hashtbl.replace solve id (self +. Option.value (Hashtbl.find_opt solve id) ~default:0.)
      | _ -> ())
    selfs;
  let mean_unloaded = Stats.mean (Hashtbl.fold (fun _ v acc -> v :: acc) lt.unloaded []) in
  let waits =
    List.filter_map
      (fun s ->
        if s.latency = infinity then None
        else
          let id = s.k.Keys.id in
          let base = Option.value (Hashtbl.find_opt lt.unloaded id) ~default:mean_unloaded in
          let solve_s =
            if s.miss then Option.value (Hashtbl.find_opt solve id) ~default:0. else 0.
          in
          Some ((s.latency -. base -. solve_s) *. 1e6))
      r.sequence
  in
  let ratio a b = if b > 0. then a /. b else 0. in
  [
    m "serve.parse_us" "us" (us "serve.parse");
    m "serve.parse_words" "words" (words "serve.parse");
    m "serve.encode_us" "us" (us "serve.encode");
    m "serve.encode_words" "words" (words "serve.encode");
    m "constructions.build_us" "us" (us "constructions.build");
    m "cache.fingerprint_us" "us" (us "cache.fingerprint");
    m "cache.fingerprint_words" "words" (words "cache.fingerprint");
    m "cache.lookup_us" "us" (us "cache.lookup");
    m "cache.insert_us" "us" (call_us "cache.insert");
    m "serve.exchange_us" "us" (us "serve.exchange");
    m "serve.transport_us" "us" (us "serve.exchange" -. hit_path_us);
    m "serve.queue_wait_us" "us" (Stats.mean waits);
    m "ncs.solve_us" "us" (call_us "ncs.solve");
    m "certify.solve_us" "us" (call_us "certify.solve");
    m "certify.check_us" "us" (call_us "certify.check");
    m "correlated.build_us" "us" (call_us "correlated.build");
    m "lp.solve_us" "us" (call_us "lp.solve");
    m "correlated.check_us" "us" (call_us "correlated.check");
    m "router.ring_us" "us" (us "router.ring");
    m "router.front_lookup_us" "us" (us "router.front_lookup");
    m "router.connect_us" "us" (us "router.connect");
    m "router.forward_us" "us" (us "router.forward");
    m "router.replicate_us" "us" (us "router.replicate");
    m "router.overhead_us" "us" (ratio (lt.overhead_sum *. 1e6) (float_of_int lt.routed_ops));
    m "trace.overhead_share" "ratio"
      (ratio (lt.traced_hit_path -. lt.untraced_hit_path) lt.untraced_hit_path);
  ]

(* Per-layer counts from outside the program: [stats] deltas around the
   measured windows, /proc CPU, and work counters read from answers.
   The router's CPU per op comes from the window where a router serves
   it, else from the traced run's probe router. *)
let count_metrics r (lt : layer_times) =
  let a = r.acc in
  let fi = float_of_int in
  let ops = fi (max 1 r.window.sent) in
  let tick_us = 1e6 /. fi r.cfg.clk_tck in
  let w = work_counters r in
  let bucket p = fi (Option.value (Stats.histogram_percentile_us ~p a.hist) ~default:0) in
  let count name = fi (delta a name) in
  let router_cpu =
    if lt.probe then fi lt.router_ticks *. tick_us /. fi (max 1 lt.routed_ops)
    else count "router.cpu" *. tick_us /. ops
  in
  [
    m "serve.hits" "count" (count "server.hits");
    m "serve.misses" "count" (count "server.misses");
    m "serve.coalesced" "count" (count "server.coalesced");
    m "serve.overloaded" "count" (count "server.overloaded");
    m "serve.max_queue_depth" "count" (fi a.max_queue);
    m "serve.handle_p50_bucket_us" "us" (bucket 50.);
    m "serve.handle_p99_bucket_us" "us" (bucket 99.);
    m "router.front_hit_ratio" "ratio" (count "router.front_hits" /. ops);
    m "router.forwards_per_op" "count/op" (count "router.forwards" /. ops);
    m "router.failovers" "count" (count "router.failovers");
    m "router.replications" "count" (count "router.replications");
    m "router.repairs" "count" (count "router.repairs");
    m "router.probes" "count" (count "router.probes");
    m "shard.cpu_us_per_op" "us" (count "server.cpu" *. tick_us /. ops);
    m "router.cpu_us_per_op" "us" router_cpu;
    m "certify.bnb_nodes" "count" (fi w.Keys.bnb_nodes);
    m "certify.descent_starts" "count" (fi w.Keys.descent_starts);
    m "lp.pivots" "count" (fi w.Keys.pivots);
    m "correlated.columns" "count" (fi w.Keys.columns);
  ]

(* End-to-end figures are medians over slices (two-second slices of a
   streaming window, cold-solve's rounds), so a few seconds in which the
   machine stalls move a run less.  The p99 is the median of the slices'
   nearest-rank p99; a slice needs [Stats.min_beyond] samples beyond its
   p99, and a run with a slice short of that fails. *)
let in_slice sl s = s.done_at >= sl.t0 && s.done_at < sl.t1

let end_to_end r =
  let n = List.length r.sequence in
  let tick_us = 1e6 /. float_of_int r.cfg.clk_tck in
  let per_slice =
    List.map
      (fun sl ->
        let lat =
          Stats.sorted
            (List.filter_map
               (fun s -> if in_slice sl s then Some (s.latency *. 1e6) else None)
               r.sequence)
        in
        if not (Stats.tail_supported ~p:99. (Array.length lat)) then
          failwith
            (Printf.sprintf "a slice of %d samples leaves fewer than %d beyond its p99"
               (Array.length lat) Stats.min_beyond);
        let ok =
          float_of_int (Array.fold_left (fun acc l -> if l < infinity then acc + 1 else acc) 0 lat)
        in
        (sl, lat, ok))
      r.slices
  in
  if per_slice = [] then failwith "no request completed in the measured window";
  let median f = Stats.median (Stats.sorted (List.map f per_slice)) in
  ( [
      m "throughput_rps" "1/s" (median (fun (sl, _, ok) -> ok /. sl.secs));
      m "latency_p50_us" "us" (median (fun (_, lat, _) -> Stats.median lat));
      m "latency_p99_us" "us" (median (fun (_, lat, _) -> Stats.percentile ~p:99. lat));
      m "cpu_us_per_op" "us"
        (median (fun (sl, _, ok) -> float_of_int sl.ticks *. tick_us /. Float.max 1. ok));
      m "peak_rss_mb" "MB" (float_of_int r.acc.peak_kb /. 1024.);
      m "setup_s" "s" (Stats.median (Stats.sorted r.setup_times));
    ],
    Printf.sprintf "%d samples in %d slices" n (List.length per_slice) )

let json_result ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i x ->
      Printf.bprintf b "%s%S: {\"value\": %.17g, \"unit\": %S}"
        (if i = 0 then "" else ", ")
        x.name x.value x.unit)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let print_metric x = Printf.printf "  %-28s %16.4f %s\n" x.name x.value x.unit

(* --- main ---------------------------------------------------------------- *)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let run cfg =
  let rng = Random.State.make [| cfg.seed; Hashtbl.hash cfg.workload |] in
  let r =
    {
      cfg; setup = phase "setup"; window = phase "window"; lock = Mutex.create ();
      sequence = []; slices = []; misses = []; setup_times = []; warms = []; window_s = 0.; last_start = 0.;
      acc = counts ();
      work_keys = [];
      replies = Hashtbl.create 64;
    }
  in
  let c, keys =
    match cfg.workload with
    | "shard-hit" -> shard_hit r rng
    | "routed-mix" -> routed_mix r rng
    | "cold-solve" -> cold_solve r rng
    | other -> failwith ("unknown workload " ^ other)
  in
  let tr = Trace.create ~enabled:cfg.trace in
  let seen = List.rev_map (fun s -> s.k) r.sequence in
  let refs, ids = references tr (keys @ seen) in
  check_answers r refs;
  let lt = if cfg.trace then Some (replay r c refs tr) else None in
  shutdown c;
  let e2e, about = end_to_end r in
  Printf.printf "workload %s  seed %d  measured %.3f s (%s)\n" cfg.workload cfg.seed r.window_s
    about;
  print_phase r.setup;
  print_phase r.window;
  let failed_share = float_of_int (failed r.window) /. float_of_int (max 1 r.window.sent) in
  Printf.printf "end-to-end:\n";
  List.iter print_metric (e2e @ [ m "failed_share" "ratio" failed_share ]);
  let correct = failed r.setup = 0 && failed r.window = 0 in
  let metrics =
    match lt with
    | None -> e2e
    | Some lt ->
      Trace.write lt.tr cfg.trace_out;
      Printf.printf "per-layer (spans in %s):\n" cfg.trace_out;
      let pl = count_metrics r lt @ trace_metrics r lt ids in
      List.iter print_metric pl;
      pl
  in
  print_endline
    (json_result ~correct ~attempted:r.window.sent ~failed:(failed r.window) metrics);
  if correct then 0 else 1

let () =
  (* Less major-GC work in this process, whose pauses would count in the
     latencies it measures. *)
  Gc.set { (Gc.get ()) with space_overhead = 400 };
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let bi = ref "" and clk_tck = ref 100 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME shard-hit | routed-mix | cold-solve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--bi", Arg.Set_string bi, "PATH the bi executable");
      ("--clk-tck", Arg.Set_int clk_tck, "N clock ticks per second of /proc CPU times");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --bi PATH --workload NAME --seed N --seconds S --trace 0|1";
  if !bi = "" || !workload = "" then begin
    prerr_endline "bench: --bi and --workload are required";
    exit 2
  end;
  let home = Sys.getcwd () in
  let abs p = if Filename.is_relative p then Filename.concat home p else p in
  let cfg =
    {
      bi = abs !bi; workload = !workload; seed = !seed; seconds = float_of_int !seconds;
      trace = !trace = 1; clk_tck = !clk_tck;
      trace_out = abs (Printf.sprintf "perfbench-trace-%s-%d.jsonl" !workload !seed);
    }
  in
  (* Each run works in its own directory under the checkout and removes
     it on the way out, whatever happened. *)
  let base = abs ".perfbench_tmp" in
  (try Unix.mkdir base 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat base (Printf.sprintf "run-%d" (Unix.getpid ())) in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  let cleanup () =
    Procs.kill_all ();
    Sys.chdir home;
    remove_tree dir;
    try Unix.rmdir base with Unix.Unix_error _ -> ()
  in
  let on_signal _ = cleanup (); exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.chdir dir;
  let code =
    match run cfg with
    | code -> code
    | exception e ->
      Printf.eprintf "bench: %s\n%!" (Printexc.to_string e);
      2
  in
  cleanup ();
  exit code
