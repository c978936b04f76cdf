(* In-process calls into each layer, each inside a span named after the
   per-layer metric it feeds.  With tracing off the spans cost nothing,
   so the untraced run computes its reference answers through the same
   code. *)

module Sink = Bi_engine.Sink
module Protocol = Bi_serve.Protocol
module Fingerprint = Bi_cache.Fingerprint
module Service = Bi_cache.Service
module Bncs = Bi_ncs.Bayesian_ncs
module Solve = Bi_certify.Solve
module Correlated = Bi_correlated.Correlated
module Simplex = Bi_lp.Simplex
module Registry = Bi_constructions.Registry

let check name = function
  | Ok () -> ()
  | Error e -> failwith (name ^ " rejected an in-process answer: " ^ e)

(* The reference answer of [k], solved in-process and independently
   checked.  In a traced run the correlated tier's LP is also built and
   solved piecewise, for [correlated.build] and [lp.solve]; the
   reference itself always comes from [Correlated.analyze]. *)
let reference tr ~op (k : Keys.key) =
  let g = Trace.span tr ~op "reference.build" (fun () -> Keys.game_of_line k.Keys.line) in
  match k.Keys.tier with
  | Keys.Exh -> Keys.Analysis (Trace.span tr ~op "ncs.solve" (fun () -> Bncs.analyze g))
  | Keys.Cert ->
    let c = Trace.span tr ~op "certify.solve" (fun () -> Solve.certify g) in
    check "Solve.check" (Trace.span tr ~op "certify.check" (fun () -> Solve.check g c));
    Keys.Certified c
  | Keys.Cce | Keys.Comm ->
    let concept = Keys.concept_of k.Keys.tier in
    if tr.Trace.enabled then begin
      let problems =
        Trace.span tr ~op "correlated.build" (fun () ->
            let t = Correlated.make g in
            List.map
              (fun sense -> Correlated.problem t ~concept ~sense)
              [ Correlated.Best; Correlated.Worst ]
            @ List.map
                (fun sense -> Correlated.public_problem t ~sense)
                [ Correlated.Best; Correlated.Worst ])
      in
      List.iter
        (fun p -> ignore (Trace.span tr ~op "lp.solve" (fun () -> Simplex.solve p)))
        problems
    end;
    let r = Trace.span tr ~op "correlated.analyze" (fun () -> Correlated.analyze ~concept g) in
    check "Correlated.check"
      (Trace.span tr ~op "correlated.check" (fun () -> Correlated.check g r));
    Keys.Correlated r

let service_value = function
  | Keys.Analysis a -> Service.Analysis a
  | Keys.Certified c -> Service.Payload (Solve.to_json c)
  | Keys.Correlated r -> Service.Payload (Correlated.to_json r)

(* The shard's hit path for one request line, as [Server.handle_line]
   runs it: parse, build the game for a construction, fingerprint,
   qualify, look up, encode.  Returns the response line. *)
let hit_path tr ~op cache line =
  let req =
    match Trace.span tr ~op "serve.parse" (fun () -> Protocol.parse_request line) with
    | Ok r -> r
    | Error e -> failwith e
  in
  let fp, tier =
    match req.Protocol.query with
    | Protocol.Construction { name; k; mode; concept } ->
      let g =
        Trace.span tr ~op "constructions.build" (fun () ->
            match Registry.build name k with Ok g -> g | Error e -> failwith e)
      in
      (Trace.span tr ~op "cache.fingerprint" (fun () -> Fingerprint.of_game g), (mode, concept))
    | Protocol.Analyze { graph; prior; mode; concept } ->
      ( Trace.span tr ~op "cache.fingerprint" (fun () -> Fingerprint.game graph ~prior),
        (mode, concept) )
    | _ -> failwith "hit_path: not an analysis request"
  in
  let mode, concept = tier in
  let tier =
    match (mode, concept) with
    | _, Bi_correlated.Concept.Cce -> Keys.Cce
    | _, Bi_correlated.Concept.Comm -> Keys.Comm
    | Bi_certify.Mode.Certified, _ -> Keys.Cert
    | _ -> Keys.Exh
  in
  let id = Trace.span tr ~op "cache.fingerprint" (fun () -> Keys.qualify tier fp) in
  let value =
    match Trace.span tr ~op "cache.lookup" (fun () -> Service.find cache id) with
    | Some v -> v
    | None -> failwith ("hit_path: no cached value for " ^ id)
  in
  Trace.span tr ~op "serve.encode" (fun () ->
      let j =
        match (value, tier) with
        | Service.Analysis a, _ -> Protocol.ok_analysis ~fingerprint:id ~cached:true a
        | Service.Payload p, Keys.Cert -> Protocol.ok_certified ~fingerprint:id ~cached:true p
        | Service.Payload p, _ ->
          Protocol.ok_correlated ~fingerprint:id ~cached:true
            ~concept:(Keys.concept_of tier) p
      in
      Sink.to_string j)
