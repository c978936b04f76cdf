(* The requests a workload sends, generated from its seed, and the
   in-process reference answer each one must match byte for byte. *)

module Sink = Bi_engine.Sink
module Protocol = Bi_serve.Protocol
module Fingerprint = Bi_cache.Fingerprint
module Bncs = Bi_ncs.Bayesian_ncs
module Mode = Bi_certify.Mode
module Solve = Bi_certify.Solve
module Concept = Bi_correlated.Concept
module Correlated = Bi_correlated.Correlated
module Registry = Bi_constructions.Registry
module Rat = Bi_num.Rat

type tier = Exh | Cert | Cce | Comm

type game =
  | Cons of string * int
  | Inline of Bi_graph.Graph.t * (int * int) array Bi_prob.Dist.t

type key = {
  tier : tier;
  line : string;  (* the request line sent *)
  id : string;  (* the tier-qualified cache key the shard uses *)
}

let mode_of = function Cert -> Mode.Certified | _ -> Mode.Exhaustive

let concept_of = function
  | Cce -> Concept.Cce
  | Comm -> Concept.Comm
  | Exh | Cert -> Concept.Nash

let construction name k = match Registry.build name k with Ok g -> g | Error e -> failwith e

(* The game as the server sees it: decoded from the request line, so a
   reference answer is solved on exactly the input the server got. *)
let game_of_line line =
  match Protocol.parse_request line with
  | Ok { Protocol.query = Protocol.Analyze { graph; prior; _ }; _ } -> Bncs.make graph ~prior
  | Ok { Protocol.query = Protocol.Construction { name; k; _ }; _ } -> construction name k
  | Ok _ -> failwith "game_of_line: not an analysis request"
  | Error e -> failwith ("game_of_line: " ^ e)

let fingerprint_of = function
  | Cons (name, k) -> Fingerprint.of_game (construction name k)
  | Inline (graph, prior) -> Fingerprint.game graph ~prior

let qualify tier fp =
  match tier with
  | Exh -> fp
  | Cert -> Fingerprint.with_mode fp ~mode:(Mode.cache_tag Mode.Certified)
  | Cce | Comm -> Fingerprint.with_concept fp ~concept:(Concept.cache_tag (concept_of tier))

let make game tier =
  let mode = mode_of tier and concept = concept_of tier in
  let request =
    match game with
    | Cons (name, k) -> Protocol.construction_request ~mode ~concept ~name ~k ()
    | Inline (graph, prior) -> Protocol.analyze_request ~mode ~concept graph ~prior
  in
  { tier; line = Sink.to_string request; id = qualify tier (fingerprint_of game) }

(* Small random games: 2 agents on 3-4 vertices, one or two support
   states (the family the repo's own cross-tier tests draw from), kept
   to at most [max_profiles] valid strategy profiles.  The bound keeps
   every tier's solve in the low milliseconds: without it one game in a
   hundred takes seconds on the comm LP, and a run's work would hinge on
   which games its seed drew. *)
let max_profiles = 16.

let random_game rng =
  let rec draw () =
    let n = 3 + Random.State.int rng 2 in
    let graph = Bi_graph.Gen.random_connected_graph rng ~n ~p:0.35 ~max_cost:5 in
    let profile () = Array.init 2 (fun _ -> (Random.State.int rng n, Random.State.int rng n)) in
    let support = List.init (1 + Random.State.int rng 2) (fun _ -> profile ()) in
    let prior =
      Bi_prob.Dist.make (List.map (fun t -> (t, Rat.of_int (1 + Random.State.int rng 2))) support)
    in
    if Bncs.valid_profile_count (Bncs.make graph ~prior) <= max_profiles then Inline (graph, prior)
    else draw ()
  in
  draw ()

(* [count] random keys on [tier] whose cache keys are not in [seen];
   adds them to [seen]. *)
let fresh_random rng ~seen tier count =
  let rec go acc n tries =
    if tries > 100 * (count + 10) then
      failwith "fresh_random: the game family ran out of distinct games";
    if n = 0 then List.rev acc
    else
      let k = make (random_game rng) tier in
      if Hashtbl.mem seen k.id then go acc n (tries + 1)
      else begin
        Hashtbl.add seen k.id ();
        go (k :: acc) (n - 1) (tries + 1)
      end
  in
  go [] count 0

let constructions tier ~names ~ks =
  List.concat_map (fun name -> List.map (fun k -> make (Cons (name, k)) tier) ks) names

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- reference answers ------------------------------------------------ *)

(* The payload part of a reference answer; the response line for either
   value of the [cached] flag follows from it. *)
type answer =
  | Analysis of Bncs.analysis
  | Certified of Solve.certified
  | Correlated of Correlated.report

let response k answer ~cached =
  let j =
    match answer with
    | Analysis a -> Protocol.ok_analysis ~fingerprint:k.id ~cached a
    | Certified c -> Protocol.ok_certified ~fingerprint:k.id ~cached (Solve.to_json c)
    | Correlated r ->
      Protocol.ok_correlated ~fingerprint:k.id ~cached ~concept:(concept_of k.tier)
        (Correlated.to_json r)
  in
  Sink.to_string j

(* Counters carried in answer payloads: B&B nodes and descent starts of
   certified answers, simplex pivots and LP columns of correlated ones. *)
type work = { bnb_nodes : int; descent_starts : int; pivots : int; columns : int }

let no_work = { bnb_nodes = 0; descent_starts = 0; pivots = 0; columns = 0 }

let add_work a b =
  {
    bnb_nodes = a.bnb_nodes + b.bnb_nodes;
    descent_starts = a.descent_starts + b.descent_starts;
    pivots = a.pivots + b.pivots;
    columns = a.columns + b.columns;
  }

(* The integer at a path of object members; 0 when absent. *)
let int_at path j =
  match List.fold_left (fun j f -> Option.bind j (Sink.member f)) (Some j) path with
  | Some (Sink.Int n) -> n
  | _ -> 0

let work_of_response line =
  match Sink.of_string line with
  | Error _ -> no_work
  | Ok j ->
    {
      bnb_nodes = int_at [ "certified"; "bnb_nodes" ] j;
      descent_starts = int_at [ "certified"; "descent_starts" ] j;
      pivots =
        List.fold_left
          (fun acc s -> acc + int_at [ "correlated"; "pivots"; s ] j)
          0 [ "best"; "worst"; "pub_best"; "pub_worst" ];
      columns = int_at [ "correlated"; "columns" ] j;
    }
