module Sink = Bi_engine.Sink
module Service = Bi_cache.Service
module Fingerprint = Bi_cache.Fingerprint
module Bncs = Bi_ncs.Bayesian_ncs
module Mode = Bi_certify.Mode
module Solve = Bi_certify.Solve
module Concept = Bi_correlated.Concept
module Correlated = Bi_correlated.Correlated

type t = Exhaustive | Certified | Cce | Comm

let to_string = function
  | Exhaustive -> "exhaustive"
  | Certified -> "certified"
  | Cce -> "cce"
  | Comm -> "comm"

let resolve ~mode ~concept game =
  match concept with
  | Concept.Cce -> Cce
  | Concept.Comm -> Comm
  | Concept.Nash -> (
    let mode =
      match mode with
      | Mode.Auto ->
        Mode.resolve
          ~valid_profiles:(Bncs.valid_profile_count (Lazy.force game))
          mode
      | m -> m
    in
    match mode with Mode.Certified -> Certified | _ -> Exhaustive)

let concept = function
  | Cce -> Concept.Cce
  | Comm -> Concept.Comm
  | Exhaustive | Certified -> Concept.Nash

let key t fingerprint =
  match t with
  | Exhaustive -> fingerprint
  | Certified ->
    Fingerprint.with_mode fingerprint ~mode:(Mode.cache_tag Mode.Certified)
  | Cce | Comm ->
    Fingerprint.with_concept fingerprint ~concept:(Concept.cache_tag (concept t))

let fits t v =
  match (t, v) with
  | Exhaustive, Service.Analysis _ -> true
  | (Certified | Cce | Comm), Service.Payload _ -> true
  | _ -> false

let checked ~check ~what verify encode x =
  match if check then verify x else Ok () with
  | Ok () -> Ok (Service.Payload (encode x))
  | Error e -> Error (Printf.sprintf "%s rejected: %s" what e)

let solve ?pool ?budget ?(check = false) t game =
  match t with
  | Exhaustive -> Ok (Service.Analysis (Bncs.analyze ?pool ?budget game))
  | Certified ->
    checked ~check ~what:"certificate" (Solve.check game) Solve.to_json
      (Solve.certify ?pool ?budget game)
  | Cce | Comm ->
    checked ~check ~what:"correlated certificate" (Correlated.check game)
      Correlated.to_json
      (Correlated.analyze ?budget ~concept:(concept t) game)

let body = function
  | Service.Analysis a -> Bi_cache.Codec.analysis_to_json a
  | Service.Payload j -> j

let fields t ~fingerprint ~cached body =
  ("fingerprint", Sink.Str fingerprint)
  :: ("cached", Sink.Bool cached)
  ::
  (match t with
  | Exhaustive -> [ ("analysis", body) ]
  | Certified -> [ ("mode", Sink.Str (to_string t)); ("certified", body) ]
  | Cce | Comm -> [ ("concept", Sink.Str (to_string t)); ("correlated", body) ])

let ok t ~fingerprint ~cached body =
  Sink.Obj (("ok", Sink.Bool true) :: fields t ~fingerprint ~cached body)
