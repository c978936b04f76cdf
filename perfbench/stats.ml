(* Pure arithmetic behind the benchmark's reported numbers: percentiles,
   the tail rule, the server's log2 latency histogram, /proc parsing and
   span self time.  Kept free of I/O so the unit tests can pin it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  [p] is in (0, 100]. *)
let rank ~p n =
  if n < 1 then invalid_arg "Stats.rank: no samples";
  if p <= 0. || p > 100. then invalid_arg "Stats.rank: p outside (0, 100]";
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9)) in
  max 1 (min n r)

let percentile ~p (a : float array) = a.(rank ~p (Array.length a) - 1)

(* Samples strictly after the nearest-rank position of [p]. *)
let beyond ~p n = n - rank ~p n

(* A tail percentile is only reported when at least this many samples
   lie beyond it; fewer would make it the luck of a handful of ops. *)
let min_beyond = 10

let tail_supported ~p n = n >= 1 && beyond ~p n >= min_beyond

let median (a : float array) = percentile ~p:50. a

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* --- the shard's log2 latency histogram ------------------------------ *)

(* [latency_log2_us] lists buckets [{"le_us": 2^(i+1)-1, "count": n}] up
   to the last non-empty one; bucket i holds handling times in
   [2^i, 2^(i+1)) µs.  Histograms are compared as count arrays indexed
   by bucket. *)
let histogram_of_json (j : Bi_engine.Sink.json) =
  match j with
  | Bi_engine.Sink.List buckets ->
    Array.of_list
      (List.map
         (fun b ->
           match Bi_engine.Sink.member "count" b with
           | Some (Bi_engine.Sink.Int n) -> n
           | _ -> invalid_arg "Stats.histogram_of_json: bucket without count")
         buckets)
  | _ -> invalid_arg "Stats.histogram_of_json: not a list"

let bucket_upper_us i = (1 lsl (i + 1)) - 1

let histogram_combine f a b =
  let n = max (Array.length a) (Array.length b) in
  let get x i = if i < Array.length x then x.(i) else 0 in
  Array.init n (fun i -> f (get a i) (get b i))

let histogram_delta ~before ~after = histogram_combine ( - ) after before
let histogram_sum a b = histogram_combine ( + ) a b

(* Upper bound (µs) of the bucket holding the nearest-rank [p]
   percentile; [None] for an empty histogram. *)
let histogram_percentile_us ~p h =
  let total = Array.fold_left ( + ) 0 h in
  if total = 0 then None
  else begin
    let target = rank ~p total in
    let rec go i acc =
      let acc = acc + h.(i) in
      if acc >= target || i = Array.length h - 1 then Some (bucket_upper_us i)
      else go (i + 1) acc
    in
    go 0 0
  end

(* --- /proc ------------------------------------------------------------ *)

(* utime + stime, in clock ticks, from a /proc/<pid>/stat line.  The
   command name (field 2) is parenthesised and may hold spaces or
   parentheses, so fields are counted from the last ')'. *)
let cpu_ticks_of_stat line =
  match String.rindex_opt line ')' with
  | None -> None
  | Some i -> (
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    let fields = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim rest)) in
    (* After ')': state is field 3, utime field 14, stime field 15. *)
    match (List.nth_opt fields 11, List.nth_opt fields 12) with
    | Some u, Some s -> (
      match (int_of_string_opt u, int_of_string_opt s) with
      | Some u, Some s -> Some (u + s)
      | _ -> None)
    | _ -> None)

(* VmHWM (peak resident set) in kB from /proc/<pid>/status text. *)
let vm_hwm_kb_of_status text =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = "VmHWM" -> (
        let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        match String.split_on_char ' ' v with
        | n :: _ -> int_of_string_opt n
        | [] -> None)
      | _ -> None)
    (String.split_on_char '\n' text)

(* --- span self time --------------------------------------------------- *)

(* Length of [lo, hi] covered by the union of [intervals]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec sweep acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
      match cur with
      | None -> sweep acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if a <= cb then sweep acc (Some (ca, Float.max cb b)) rest
        else sweep (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  sweep 0. None (List.sort compare clipped)

(* A span's self time: its duration minus the part of it that its
   children cover (overlapping children are counted once). *)
let self_time ~start ~stop children =
  (stop -. start) -. covered ~lo:start ~hi:stop children
