(* Unit tests for the benchmark's own arithmetic. *)

open Perfbench

let feq = Alcotest.float 1e-9

let test_percentiles () =
  let a = Stats.sorted (List.init 10 (fun i -> float_of_int (10 - i))) in
  Alcotest.check feq "p50 of 1..10" 5. (Stats.percentile ~p:50. a);
  Alcotest.check feq "p90 of 1..10" 9. (Stats.percentile ~p:90. a);
  Alcotest.check feq "p99 of 1..10" 10. (Stats.percentile ~p:99. a);
  Alcotest.check feq "p100 of 1..10" 10. (Stats.percentile ~p:100. a);
  Alcotest.check feq "p1 of 1..10" 1. (Stats.percentile ~p:1. a);
  Alcotest.check feq "single sample" 7. (Stats.percentile ~p:99. [| 7. |]);
  Alcotest.check feq "median of 4" 2. (Stats.median [| 1.; 2.; 3.; 4. |]);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.rank: no samples") (fun () ->
      ignore (Stats.rank ~p:50. 0))

let test_tail_rule () =
  Alcotest.(check int) "rank of p99 in 1000" 990 (Stats.rank ~p:99. 1000);
  Alcotest.(check int) "beyond p99 in 1000" 10 (Stats.beyond ~p:99. 1000);
  Alcotest.(check bool) "1000 samples support p99" true (Stats.tail_supported ~p:99. 1000);
  Alcotest.(check int) "beyond p99 in 999" 9 (Stats.beyond ~p:99. 999);
  Alcotest.(check bool) "999 samples do not" false (Stats.tail_supported ~p:99. 999);
  Alcotest.(check bool) "100 samples support p90" true (Stats.tail_supported ~p:90. 100);
  Alcotest.(check bool) "99 samples do not" false (Stats.tail_supported ~p:90. 99)

let histogram counts =
  Bi_engine.Sink.List
    (List.mapi
       (fun i n ->
         Bi_engine.Sink.Obj
           [ ("le_us", Bi_engine.Sink.Int ((1 lsl (i + 1)) - 1)); ("count", Bi_engine.Sink.Int n) ])
       counts)

let test_histogram () =
  let before = Stats.histogram_of_json (histogram [ 1; 2 ]) in
  let after = Stats.histogram_of_json (histogram [ 1; 5; 0; 4 ]) in
  let d = Stats.histogram_delta ~before ~after in
  Alcotest.(check (array int)) "delta pads the shorter side" [| 0; 3; 0; 4 |] d;
  Alcotest.(check (array int)) "sum" [| 1; 5; 0; 4 |] (Stats.histogram_sum d before);
  Alcotest.(check (option int)) "p50 bucket" (Some 15) (Stats.histogram_percentile_us ~p:50. d);
  Alcotest.(check (option int)) "p40 bucket" (Some 3) (Stats.histogram_percentile_us ~p:40. d);
  Alcotest.(check (option int)) "p99 bucket" (Some 15) (Stats.histogram_percentile_us ~p:99. d);
  Alcotest.(check (option int)) "empty" None (Stats.histogram_percentile_us ~p:50. [| 0; 0 |]);
  Alcotest.(check int) "bucket 0 upper bound" 1 (Stats.bucket_upper_us 0)

let test_proc () =
  let stat =
    "4242 (bi.exe (a) b) S 1 4242 4242 0 -1 4194304 500 0 0 0 123 45 0 0 20 0 3 0 99 1000 200"
  in
  Alcotest.(check (option int)) "utime + stime" (Some 168) (Stats.cpu_ticks_of_stat stat);
  Alcotest.(check (option int)) "truncated stat" None (Stats.cpu_ticks_of_stat "12 (x) S 1 2");
  let status = "Name:\tbi.exe\nVmPeak:\t  300 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n" in
  Alcotest.(check (option int)) "VmHWM" (Some 12345) (Stats.vm_hwm_kb_of_status status);
  Alcotest.(check (option int)) "no VmHWM" None (Stats.vm_hwm_kb_of_status "Name:\tx\n")

let test_self_time () =
  Alcotest.check feq "overlapping children count once" 5.
    (Stats.self_time ~start:0. ~stop:10. [ (1., 3.); (2., 5.); (7., 8.) ]);
  Alcotest.check feq "children clipped to the span" 7.
    (Stats.self_time ~start:0. ~stop:10. [ (-2., 1.); (9., 12.); (4., 5.) ]);
  Alcotest.check feq "no children" 10. (Stats.self_time ~start:0. ~stop:10. []);
  let span id parent name start stop =
    { Trace.id; parent; name; op = 1; start; stop; minor_words = 0. }
  in
  let spans =
    [
      span 1 0 "op" 0. 10.;
      span 2 1 "parse" 1. 3.;
      span 3 1 "lookup" 4. 5.;
      span 4 3 "inner" 4. 4.5;
    ]
  in
  let summary = Trace.summarize (Trace.self_times spans) in
  let self name = (Hashtbl.find summary name).Trace.self_s in
  Alcotest.check feq "op self" 7. (self "op");
  Alcotest.check feq "lookup self" 0.5 (self "lookup");
  Alcotest.(check int) "one op span" 1 (Hashtbl.find summary "op").Trace.count

let test_trace_recording () =
  let tr = Trace.create ~enabled:true in
  let v = Trace.span tr ~op:3 "outer" (fun () -> Trace.span tr ~op:3 "inner" (fun () -> 42)) in
  Alcotest.(check int) "value passes through" 42 v;
  match Trace.spans tr with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner recorded first" "inner" inner.Trace.name;
    Alcotest.(check int) "parent link" outer.Trace.id inner.Trace.parent;
    Alcotest.(check int) "root has no parent" 0 outer.Trace.parent;
    Alcotest.(check int) "op id" 3 inner.Trace.op
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "ten samples beyond the tail" `Quick test_tail_rule;
          Alcotest.test_case "log2 histogram" `Quick test_histogram;
          Alcotest.test_case "/proc parsing" `Quick test_proc;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "span recording" `Quick test_trace_recording;
        ] );
    ]
