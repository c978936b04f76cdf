(* In-memory spans around the benchmark's calls into each layer.  A
   span records its name, start, end, parent span and op id, plus the
   minor-heap words allocated inside it; nothing is written until
   [write] at the end of the run, so recording costs one record per
   span.  Single-threaded: the traced replay runs on one thread. *)

type span = {
  id : int;
  parent : int;  (* 0 for a root span *)
  name : string;
  op : int;
  start : float;
  stop : float;
  minor_words : float;
}

type t = {
  mutable enabled : bool;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;  (* newest first *)
}

let create ~enabled = { enabled; next = 1; stack = []; spans = [] }

let span t ~op name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      let minor_words = Gc.minor_words () -. w0 in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; name; op; start; stop; minor_words } :: t.spans
    in
    Fun.protect ~finally:finish f
  end

let spans t = List.rev t.spans

(* Self time of every span, in recording order. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      (s, Stats.self_time ~start:s.start ~stop:s.stop (Hashtbl.find_all children s.id)))
    spans

type summary = { count : int; self_s : float; words : float }

(* Per-name totals over [self_times] output. *)
let summarize selfs =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let c =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ count = 0; self_s = 0.; words = 0. }
      in
      Hashtbl.replace tbl s.name
        {
          count = c.count + 1;
          self_s = c.self_s +. self;
          words = c.words +. s.minor_words;
        })
    selfs;
  tbl

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"op\":%d,\"start\":%.6f,\"end\":%.6f,\"minor_words\":%.0f}\n"
            s.id s.parent s.name s.op s.start s.stop s.minor_words)
        (spans t))
