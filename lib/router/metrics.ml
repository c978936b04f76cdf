module Sink = Bi_engine.Sink

type t = {
  lock : Mutex.t;
  mutable requests : int;
  mutable errors : int;
  mutable front_hits : int;
  mutable forwards : int;
  mutable connects : int;
  mutable failovers : int;
  mutable unrouted : int;
  mutable replications : int;
  mutable replication_failures : int;
  mutable quorum_failures : int;
  mutable probes : int;
  mutable probe_failures : int;
  mutable marked_up : int;
  mutable marked_down : int;
  mutable warmed : int;
  mutable hints_recorded : int;
  mutable hints_dropped : int;
  mutable read_repairs : int;
  mutable repair_rounds : int;
  mutable divergent_keys : int;
  mutable repairs : int;
  mutable inflight : int;
  mutable max_inflight : int;
}

let create () =
  {
    lock = Mutex.create ();
    requests = 0;
    errors = 0;
    front_hits = 0;
    forwards = 0;
    connects = 0;
    failovers = 0;
    unrouted = 0;
    replications = 0;
    replication_failures = 0;
    quorum_failures = 0;
    probes = 0;
    probe_failures = 0;
    marked_up = 0;
    marked_down = 0;
    warmed = 0;
    hints_recorded = 0;
    hints_dropped = 0;
    read_repairs = 0;
    repair_rounds = 0;
    divergent_keys = 0;
    repairs = 0;
    inflight = 0;
    max_inflight = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let enter t =
  locked t (fun () ->
      t.requests <- t.requests + 1;
      t.inflight <- t.inflight + 1;
      if t.inflight > t.max_inflight then t.max_inflight <- t.inflight)

let leave t = locked t (fun () -> t.inflight <- t.inflight - 1)
let inflight t = locked t (fun () -> t.inflight)
let error t = locked t (fun () -> t.errors <- t.errors + 1)
let front_hit t = locked t (fun () -> t.front_hits <- t.front_hits + 1)
let forward t = locked t (fun () -> t.forwards <- t.forwards + 1)
let connect t = locked t (fun () -> t.connects <- t.connects + 1)
let failover t = locked t (fun () -> t.failovers <- t.failovers + 1)
let unrouted t = locked t (fun () -> t.unrouted <- t.unrouted + 1)
let replication t = locked t (fun () -> t.replications <- t.replications + 1)

let replication_failure t =
  locked t (fun () -> t.replication_failures <- t.replication_failures + 1)

let quorum_failure t =
  locked t (fun () -> t.quorum_failures <- t.quorum_failures + 1)

let probe t = locked t (fun () -> t.probes <- t.probes + 1)

let probe_failure t =
  locked t (fun () -> t.probe_failures <- t.probe_failures + 1)

let marked_up t = locked t (fun () -> t.marked_up <- t.marked_up + 1)
let marked_down t = locked t (fun () -> t.marked_down <- t.marked_down + 1)
let warmed t = locked t (fun () -> t.warmed <- t.warmed + 1)

let hint_recorded t =
  locked t (fun () -> t.hints_recorded <- t.hints_recorded + 1)

let hint_dropped t =
  locked t (fun () -> t.hints_dropped <- t.hints_dropped + 1)

let read_repair t = locked t (fun () -> t.read_repairs <- t.read_repairs + 1)

let repair_round t =
  locked t (fun () -> t.repair_rounds <- t.repair_rounds + 1)

let divergent t ~keys =
  locked t (fun () -> t.divergent_keys <- t.divergent_keys + keys)

let repair t = locked t (fun () -> t.repairs <- t.repairs + 1)

let to_json t =
  locked t (fun () ->
      Sink.Obj
        [
          ("requests", Sink.Int t.requests);
          ("errors", Sink.Int t.errors);
          ("front_hits", Sink.Int t.front_hits);
          ("forwards", Sink.Int t.forwards);
          ("connects", Sink.Int t.connects);
          ("failovers", Sink.Int t.failovers);
          ("unrouted", Sink.Int t.unrouted);
          ("replications", Sink.Int t.replications);
          ("replication_failures", Sink.Int t.replication_failures);
          ("quorum_failures", Sink.Int t.quorum_failures);
          ("probes", Sink.Int t.probes);
          ("probe_failures", Sink.Int t.probe_failures);
          ("marked_up", Sink.Int t.marked_up);
          ("marked_down", Sink.Int t.marked_down);
          ("warmed", Sink.Int t.warmed);
          ("hints_recorded", Sink.Int t.hints_recorded);
          ("hints_dropped", Sink.Int t.hints_dropped);
          ("read_repairs", Sink.Int t.read_repairs);
          ("repair_rounds", Sink.Int t.repair_rounds);
          ("divergent_keys", Sink.Int t.divergent_keys);
          ("repairs", Sink.Int t.repairs);
          ("inflight", Sink.Int t.inflight);
          ("max_inflight", Sink.Int t.max_inflight);
        ])
