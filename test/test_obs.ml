(* Tests for the Qdp_obs observability layer: counter/gauge/histogram
   arithmetic, snapshot/reset, span nesting and attribute round-trip
   through the JSON exporters, the agreement of the trace and profile
   sinks of one timed section, a Runtime.run smoke test checking the
   emitted counts against the returned stats, and the Report.pp_row
   column clamping. *)

open Qdp_network
module Metrics = Qdp_obs.Metrics
module Trace = Qdp_obs.Trace
module Prof = Qdp_obs.Prof

let section = Qdp_obs.section
let with_obs f = Qdp_obs.with_enabled true f

(* Trace and profile both on, for the sink-agreement cases. *)
let with_both f =
  Trace.clear ();
  Prof.reset ();
  Prof.set_enabled true;
  Fun.protect ~finally:(fun () -> Prof.set_enabled false) (fun () -> with_obs f)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- metrics --- *)

let counter_value name =
  match Metrics.find (Metrics.snapshot ()) name with
  | Some (Metrics.Counter_v c) -> c
  | _ -> Alcotest.failf "counter %s missing from snapshot" name

let test_counter () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Alcotest.(check int) "disabled incr is a no-op" 0 (counter_value "test.counter");
  with_obs (fun () ->
      Metrics.incr c;
      Metrics.incr ~by:41 c);
  Alcotest.(check int) "counts accumulate" 42 (counter_value "test.counter");
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (counter_value "test.counter")

let test_counter_identity () =
  let a = Metrics.counter "test.shared" in
  let b = Metrics.counter "test.shared" in
  Metrics.reset ();
  with_obs (fun () ->
      Metrics.incr a;
      Metrics.incr b);
  Alcotest.(check int) "same name, same counter" 2 (counter_value "test.shared");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument
       "Qdp_obs.Metrics: \"test.shared\" already registered with another kind")
    (fun () -> ignore (Metrics.gauge "test.shared"))

let test_gauge () =
  Metrics.reset ();
  let g = Metrics.gauge "test.gauge" in
  with_obs (fun () ->
      Metrics.set g 1.5;
      Metrics.set_max g 0.5;
      Metrics.set_max g 7.25);
  (match Metrics.find (Metrics.snapshot ()) "test.gauge" with
  | Some (Metrics.Gauge_v v) ->
      Alcotest.(check (float 0.)) "set_max keeps the high watermark" 7.25 v
  | _ -> Alcotest.fail "gauge missing")

let hview name =
  match Metrics.find (Metrics.snapshot ()) name with
  | Some (Metrics.Histogram_v h) -> h
  | _ -> Alcotest.failf "histogram %s missing" name

let test_histogram () =
  Metrics.reset ();
  let h = Metrics.histogram "test.hist" in
  with_obs (fun () -> List.iter (Metrics.observe h) [ 0.5; 2.0; 3.0; 0.0 ]);
  let v = hview "test.hist" in
  Alcotest.(check int) "count" 4 v.Metrics.h_count;
  Alcotest.(check (float 1e-12)) "sum" 5.5 v.Metrics.h_sum;
  Alcotest.(check (float 0.)) "min" 0.0 v.Metrics.h_min;
  Alcotest.(check (float 0.)) "max" 3.0 v.Metrics.h_max;
  (* log-scale buckets, base 2: 0.5 -> exponent -1; 2.0 and 3.0 ->
     exponent 1; the non-positive bucket reports exponent -61 *)
  Alcotest.(check (list (pair int int)))
    "buckets" [ (-61, 1); (-1, 1); (1, 2) ] v.Metrics.h_buckets;
  Metrics.reset ();
  Alcotest.(check int) "reset empties histogram" 0 (hview "test.hist").Metrics.h_count

let test_json_export () =
  Metrics.reset ();
  let c = Metrics.counter "test.json_counter" in
  with_obs (fun () -> Metrics.incr ~by:7 c);
  let json = Metrics.to_json (Metrics.snapshot ()) in
  Alcotest.(check bool) "counter serialized" true
    (contains ~needle:"{\"name\":\"test.json_counter\",\"kind\":\"counter\",\"value\":7}" json);
  let csv = Metrics.to_csv (Metrics.snapshot ()) in
  Alcotest.(check bool) "csv row present" true
    (contains ~needle:"test.json_counter,counter,7" csv)

(* --- spans --- *)

let span_named name =
  match List.find_opt (fun sp -> sp.Trace.name = name) (Trace.spans ()) with
  | Some sp -> sp
  | None -> Alcotest.failf "span %s not recorded" name

let test_span_nesting () =
  Trace.clear ();
  let result =
    with_obs (fun () ->
        section "outer" (fun () ->
            section "inner"
              ~attrs:(fun () ->
                [ ("k", Trace.Str "v\"quoted"); ("n", Trace.Int 3) ])
              (fun () -> 21 * 2)))
  in
  Alcotest.(check int) "value passes through" 42 result;
  let outer = span_named "outer" and inner = span_named "inner" in
  Alcotest.(check int) "outer is a root span" (-1) outer.Trace.parent;
  Alcotest.(check int) "inner nests under outer" outer.Trace.id inner.Trace.parent;
  Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
  Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
  Alcotest.(check bool) "durations are non-negative" true
    (outer.Trace.dur_s >= 0. && inner.Trace.dur_s >= inner.Trace.dur_s);
  (* children are recorded (exit) before their parent *)
  let names = List.map (fun sp -> sp.Trace.name) (Trace.spans ()) in
  Alcotest.(check (list string)) "exit order" [ "inner"; "outer" ] names;
  (* attribute round-trip through the JSONL exporter, incl. escaping *)
  let jsonl = Trace.to_jsonl () in
  Alcotest.(check bool) "attrs serialized" true
    (contains ~needle:"\"attrs\":{\"k\":\"v\\\"quoted\",\"n\":3}" jsonl);
  Alcotest.(check bool) "parent id serialized" true
    (contains ~needle:(Printf.sprintf "\"parent\":%d,\"name\":\"inner\"" outer.Trace.id) jsonl)

let test_span_disabled () =
  Trace.clear ();
  let r = section "ghost" (fun () -> 7) in
  Alcotest.(check int) "disabled span is transparent" 7 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.spans ()))

let test_ring_buffer () =
  Trace.set_capacity 4;
  with_obs (fun () ->
      for i = 1 to 6 do
        section (Printf.sprintf "s%d" i) (fun () -> ())
      done);
  Alcotest.(check int) "ring keeps the last [capacity] spans" 4
    (List.length (Trace.spans ()));
  Alcotest.(check int) "evictions counted" 2 (Trace.dropped ());
  let names = List.map (fun sp -> sp.Trace.name) (Trace.spans ()) in
  Alcotest.(check (list string)) "oldest evicted first"
    [ "s3"; "s4"; "s5"; "s6" ] names;
  Alcotest.(check (option string)) "drop note"
    (Some
       "trace: 2 earlier spans were evicted; the file holds the last 4 (the \
        ring's capacity)")
    (Trace.drop_note ());
  Trace.set_capacity 8192;
  Alcotest.(check (option string)) "no drops, no note" None (Trace.drop_note ())

let test_span_exception () =
  Trace.clear ();
  (try
     with_obs (fun () ->
         section "raising" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let sp = span_named "raising" in
  Alcotest.(check int) "span recorded despite the exception" 0 sp.Trace.depth;
  (* the span stack unwound: a following root span has depth 0 *)
  with_obs (fun () -> section "after" (fun () -> ()));
  Alcotest.(check int) "stack unwound" 0 (span_named "after").Trace.depth

(* --- one section, two sinks --- *)

(* A span's profile path, rebuilt from its parent chain. *)
let span_path spans sp =
  let by_id = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace by_id s.Trace.id s) spans;
  let rec go sp =
    if sp.Trace.parent = -1 then sp.Trace.name
    else
      match Hashtbl.find_opt by_id sp.Trace.parent with
      | Some p -> go p ^ "/" ^ sp.Trace.name
      | None -> Alcotest.failf "span %s: parent %d not recorded" sp.Trace.name
                  sp.Trace.parent
  in
  go sp

let prof_calls () =
  List.map (fun e -> (e.Prof.e_path, e.Prof.e_calls)) (Prof.entries ())

let test_sinks_agree () =
  with_both (fun () ->
      section "root" (fun () ->
          section "a" (fun () -> section "leaf" ignore);
          (try
             section "b" (fun () ->
                 section "raise" (fun () -> failwith "boom"))
           with Failure _ -> ());
          section "c" ignore));
  let spans = Trace.spans () in
  let paths = List.map (span_path spans) spans in
  Alcotest.(check (list string)) "span chain = profile paths, in exit order"
    (List.map fst (prof_calls ())) paths;
  Alcotest.(check (list string)) "the expected tree"
    [ "root/a/leaf"; "root/a"; "root/b/raise"; "root/b"; "root/c"; "root" ]
    paths;
  List.iter2
    (fun sp path ->
      let segments = List.length (String.split_on_char '/' path) in
      Alcotest.(check int) (path ^ " depth") (segments - 1) sp.Trace.depth)
    spans paths;
  Alcotest.(check bool) "one call per path" true
    (List.for_all (fun (_, c) -> c = 1) (prof_calls ()))

(* A section opened inside a pool task on a worker domain roots a new
   tree there in both sinks; the tasks the submitting domain helps
   with keep the caller's prefix. *)
let test_pool_roots () =
  let jobs0 = Qdp_par.jobs () in
  Qdp_par.set_oversubscribe true;
  Qdp_par.set_jobs 4;
  Fun.protect ~finally:(fun () -> Qdp_par.set_jobs jobs0) @@ fun () ->
  let caller = (Domain.self () :> int) in
  with_both (fun () ->
      section "outer" (fun () ->
          ignore
            (Qdp_par.map 32 (fun i ->
                 section "task"
                   ~attrs:(fun () ->
                     [ ("domain", Trace.Int (Domain.self () :> int)) ])
                   (fun () ->
                     Unix.sleepf 0.002;
                     i)))));
  let outer = span_named "outer" in
  let tasks = List.filter (fun sp -> sp.Trace.name = "task") (Trace.spans ()) in
  let on_worker sp = List.assoc "domain" sp.Trace.attrs <> Trace.Int caller in
  let workers = List.length (List.filter on_worker tasks) in
  Alcotest.(check int) "every task traced" 32 (List.length tasks);
  Alcotest.(check bool) "some task ran on a worker" true (workers > 0);
  List.iter
    (fun sp ->
      let parent, depth =
        if on_worker sp then (-1, 0) else (outer.Trace.id, 1)
      in
      Alcotest.(check (pair int int)) "task span parent, depth" (parent, depth)
        (sp.Trace.parent, sp.Trace.depth))
    tasks;
  let calls path =
    Option.value ~default:0 (List.assoc_opt path (prof_calls ()))
  in
  Alcotest.(check int) "worker tasks profile as roots" workers (calls "task");
  Alcotest.(check int) "caller tasks keep the prefix" (32 - workers)
    (calls "outer/task")

(* --- Runtime.run smoke test --- *)

let flood g =
  {
    Runtime.init = (fun _ -> ());
    round =
      (fun ~round:_ ~id s ~inbox:_ ->
        let out =
          List.filter (fun d -> d >= 0 && d < Graph.size g) [ id - 1; id + 1 ]
        in
        (s, List.map (fun d -> (d, id)) out));
    finish = (fun ~id:_ _ -> Runtime.Accept);
  }

let test_runtime_obs () =
  Metrics.reset ();
  Trace.clear ();
  let g = Graph.path 4 in
  let rounds = 3 in
  let _, stats = with_obs (fun () -> Runtime.run g ~rounds (flood g)) in
  let per_edge_total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 stats.Runtime.per_edge
  in
  Alcotest.(check int) "per_edge sums to messages" stats.Runtime.messages
    per_edge_total;
  Alcotest.(check int) "runtime.messages counter matches stats"
    stats.Runtime.messages
    (counter_value "runtime.messages");
  Alcotest.(check int) "one run counted" 1 (counter_value "runtime.runs");
  let per_round = hview "runtime.round_messages" in
  Alcotest.(check int) "one round_messages sample per round" rounds
    per_round.Metrics.h_count;
  Alcotest.(check (float 0.)) "per-round samples sum to stats.messages"
    (float_of_int stats.Runtime.messages) per_round.Metrics.h_sum;
  (* one span per execution, none per round *)
  Alcotest.(check (list string)) "only the run span" [ "runtime" ]
    (List.map (fun sp -> sp.Trace.name) (Trace.spans ()));
  Alcotest.(check bool) "run span carries the round count" true
    (List.assoc_opt "rounds" (span_named "runtime").Trace.attrs
    = Some (Trace.Int rounds))

(* --- Report.pp_row clamping --- *)

let test_report_clamp () =
  let open Qdp_core in
  Alcotest.(check string) "short strings unchanged" "abcde" (Report.clamp 5 "abcde");
  Alcotest.(check string) "long strings truncated" "abc.." (Report.clamp 5 "abcdefgh");
  let row =
    {
      Report.label = "EQ path with a very long protocol label overflowing";
      params = "n=65536 r=1024 k=999999 seed=123456789 extra=true";
      costs = Report.zero;
      completeness = 1.0;
      soundness_error = 3.2e-5;
      paper_formula = "r^2 log n qubits on every intermediate node";
      paper_value = 42.0;
    }
  in
  let rendered = Format.asprintf "%a" Report.pp_row row in
  let line =
    match String.split_on_char '\n' rendered with l :: _ -> l | [] -> ""
  in
  Alcotest.(check bool) "row fits under the header rule" true
    (String.length line <= Report.total_width);
  let header = Format.asprintf "%a" Report.pp_header () in
  let rule =
    List.find (String.for_all (Char.equal '-')) (String.split_on_char '\n' header)
  in
  Alcotest.(check int) "header rule matches the row width" Report.total_width
    (String.length rule);
  Alcotest.(check bool) "params clamped with a marker" true
    (contains ~needle:"n=65536 r=1024 k=99999.." line)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "counter identity" `Quick test_counter_identity;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "json export" `Quick test_json_export;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting + attrs" `Quick test_span_nesting;
          Alcotest.test_case "disabled" `Quick test_span_disabled;
          Alcotest.test_case "ring buffer" `Quick test_ring_buffer;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
        ] );
      ( "section",
        [
          Alcotest.test_case "trace and profile agree" `Quick test_sinks_agree;
          Alcotest.test_case "pool task roots a new tree" `Quick test_pool_roots;
        ] );
      ("runtime", [ Alcotest.test_case "run smoke" `Quick test_runtime_obs ]);
      ("report", [ Alcotest.test_case "pp_row clamp" `Quick test_report_clamp ]);
    ]
