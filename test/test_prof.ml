(* Tests for the profiling & cost-attribution layer: section nesting
   and the attribution tree, GC-allocation attribution, the
   disabled-mode zero-cost contract, pool busy/idle accounting, the
   jobs-invariance of the dense-kernel call counts, Progress heartbeat
   content, the Json parser, and the Perf_diff noise-aware
   comparator. *)

module Prof = Qdp_obs.Prof
module Progress = Qdp_obs.Progress
module Perf_diff = Qdp_obs.Perf_diff
module Json = Qdp_obs.Json

(* Busy/idle accounting and jobs-invariance tests need the pool to
   really spawn at jobs > 1, even on a 1-core host. *)
let () = Qdp_par.set_oversubscribe true

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let with_prof f =
  Prof.reset ();
  Prof.set_enabled true;
  Fun.protect ~finally:(fun () -> Prof.set_enabled false) f

(* --- Prof: sections --- *)

let test_section_nesting () =
  with_prof (fun () ->
      let r =
        Qdp_obs.section "a" (fun () ->
            let b1 = Qdp_obs.section "b" (fun () -> 1) in
            let b2 = Qdp_obs.section "b" (fun () -> 2) in
            let c = Qdp_obs.section "c" (fun () -> 4) in
            b1 + b2 + c)
      in
      Alcotest.(check int) "value passes through" 7 r);
  (* aggregates are recorded at section exit: children before parents *)
  let paths = List.map (fun e -> e.Prof.e_path) (Prof.entries ()) in
  Alcotest.(check (list string))
    "paths in first-recorded (exit) order" [ "a/b"; "a/c"; "a" ] paths;
  let entry path =
    match List.find_opt (fun e -> e.Prof.e_path = path) (Prof.entries ()) with
    | Some e -> e
    | None -> Alcotest.failf "path %s missing" path
  in
  Alcotest.(check int) "a/b aggregated over both calls" 2 (entry "a/b").Prof.e_calls;
  Alcotest.(check int) "a called once" 1 (entry "a").Prof.e_calls;
  (match Prof.tree () with
  | [ root ] ->
      Alcotest.(check string) "single root" "a" root.Prof.n_name;
      Alcotest.(check (list string))
        "children in first-seen order" [ "b"; "c" ]
        (List.map (fun n -> n.Prof.n_name) root.Prof.n_children);
      Alcotest.(check bool) "self time clamped at 0" true
        (root.Prof.n_self_s >= 0.);
      Alcotest.(check bool) "root wall covers children" true
        (root.Prof.n_wall_s
        >= List.fold_left
             (fun s n -> s +. n.Prof.n_wall_s)
             0. root.Prof.n_children)
  | forest -> Alcotest.failf "expected one root, got %d" (List.length forest));
  let flat_names = List.map (fun r -> r.Prof.r_name) (Prof.flat ()) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " in flat profile") true
        (List.mem n flat_names))
    [ "a"; "b"; "c" ];
  Prof.reset ();
  Alcotest.(check int) "reset clears entries" 0 (List.length (Prof.entries ()))

let test_gc_attribution () =
  with_prof (fun () ->
      Qdp_obs.section "alloc" (fun () ->
          ignore (Sys.opaque_identity (Array.make 200_000 0.))));
  match Prof.entries () with
  | [ e ] ->
      Alcotest.(check string) "path" "alloc" e.Prof.e_path;
      Alcotest.(check bool) "wall time is non-negative" true (e.Prof.e_wall_s >= 0.);
      Alcotest.(check bool) "the 200k-word array is attributed" true
        (e.Prof.e_minor_words +. e.Prof.e_major_words >= 100_000.);
      Alcotest.(check bool) "word counts are non-negative" true
        (e.Prof.e_minor_words >= 0.
        && e.Prof.e_major_words >= 0.
        && e.Prof.e_promoted_words >= 0.
        && e.Prof.e_compactions >= 0)
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

let noop () = ()

let test_disabled_noop () =
  Prof.set_enabled false;
  Prof.reset ();
  Alcotest.(check int) "disabled section is transparent" 9
    (Qdp_obs.section "ghost" (fun () -> 9));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Prof.entries ()));
  (* zero-cost contract: a disabled hook is one atomic load and must
     not allocate per call (budget of a few words/call for safety) *)
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Qdp_obs.section "off" noop
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "1000 disabled sections allocated %.0f words" delta)
    true (delta < 16_000.);
  Alcotest.(check int) "still nothing recorded" 0 (List.length (Prof.entries ()))

let test_section_exception () =
  with_prof (fun () ->
      (try
         Qdp_obs.section "outer" (fun () ->
             Qdp_obs.section "boom" (fun () -> failwith "boom"))
       with Failure _ -> ());
      Qdp_obs.section "after" (fun () -> ()));
  let paths = List.map (fun e -> e.Prof.e_path) (Prof.entries ()) in
  Alcotest.(check bool) "raising section recorded" true
    (List.mem "outer/boom" paths);
  Alcotest.(check bool) "stack unwound: next section roots fresh" true
    (List.mem "after" paths)

let test_domain_stats () =
  let jobs0 = Qdp_par.jobs () in
  Fun.protect
    ~finally:(fun () -> Qdp_par.set_jobs jobs0)
    (fun () ->
      with_prof (fun () ->
          Qdp_par.set_jobs 2;
          ignore (Qdp_par.map 64 (fun i -> Float.sqrt (float_of_int i)));
          let count, wall = Prof.regions () in
          Alcotest.(check bool) "one outermost region recorded" true (count >= 1);
          Alcotest.(check bool) "region wall non-negative" true (wall >= 0.);
          let stats = Prof.domain_stats () in
          Alcotest.(check bool) "pool domains recorded" true (stats <> []);
          let tasks =
            List.fold_left (fun s d -> s + d.Prof.dom_tasks) 0 stats
          in
          Alcotest.(check bool) "tasks counted" true (tasks > 0);
          List.iter
            (fun d ->
              Alcotest.(check bool) "busy non-negative" true
                (d.Prof.dom_busy_s >= 0.))
            stats))

let test_prof_json () =
  with_prof (fun () -> Qdp_obs.section "j" (fun () -> ()));
  let j = Json.parse (Prof.to_json ()) in
  (match Json.member "sections" j with
  | Some (Json.Arr [ s ]) ->
      Alcotest.(check (option string)) "section path serialized" (Some "j")
        (Option.bind (Json.member "path" s) Json.string_opt)
  | _ -> Alcotest.fail "sections array missing");
  Alcotest.(check bool) "regions object present" true
    (Json.member "regions" j <> None)

(* The dense kernels' profile call counts are jobs-invariant: the
   same workload at jobs = 1 and jobs = 4 opens the same number of
   [mat.mul], [mat.tensor] and [batch.*] sections (the kernels run
   sequentially on the calling domain whatever the job count), and
   computes bit-identical results. *)
let test_kernel_calls_jobs_invariance () =
  let open Qdp_linalg in
  let jobs0 = Qdp_par.jobs () in
  Fun.protect ~finally:(fun () -> Qdp_par.set_jobs jobs0) @@ fun () ->
  let workload () =
    let st = Random.State.make [| 77 |] in
    let b =
      Batch.init 512 16 (fun _ _ ->
          Cx.make
            (Random.State.float st 2. -. 1.)
            (Random.State.float st 2. -. 1.))
    in
    let m = Mat.init 16 16 (fun i j -> Cx.make (float_of_int (i - j)) 0.) in
    let g = Batch.gram b in
    let prod = Mat.mul (Mat.tensor (Mat.identity 2) m) (Mat.identity 32) in
    let out = Batch.create 16 512 in
    let src = Batch.init 16 512 (fun g c -> Batch.get b c g) in
    Batch.apply_into m ~src ~dst:out;
    (g, prod, out)
  in
  (* total calls per section name, over every path it appears under *)
  let calls () =
    List.filter_map
      (fun r ->
        if List.mem r.Prof.r_name
             [ "mat.mul"; "mat.tensor"; "batch.gram"; "batch.apply_into" ]
        then Some (r.Prof.r_name, r.Prof.r_calls)
        else None)
      (Prof.flat ())
    |> List.sort compare
  in
  let run jobs =
    Qdp_par.set_jobs jobs;
    let r = with_prof workload in
    (r, calls ())
  in
  let (g1, p1, o1), c1 = run 1 in
  let (g4, p4, o4), c4 = run 4 in
  Alcotest.(check (list (pair string int)))
    "kernel calls are jobs-invariant" c1 c4;
  Alcotest.(check (list string)) "every kernel counted"
    [ "batch.apply_into"; "batch.gram"; "mat.mul"; "mat.tensor" ]
    (List.map fst c1);
  Alcotest.(check bool) "results bit-identical across job counts" true
    (Mat.equal ~eps:0. g1 g4 && Mat.equal ~eps:0. p1 p4
    && Batch.equal ~eps:0. o1 o4)

(* --- Progress --- *)

let drain buf =
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  Buffer.clear buf;
  List.filter (fun l -> l <> "") lines

let with_progress ?(format = Progress.Human) f =
  let buf = Buffer.create 256 in
  Progress.configure ~interval_s:0. ~format
    ~emit:(fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    ();
  Progress.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Progress.set_enabled false;
      Progress.configure ~interval_s:1.0 ~format:Progress.Human ())
    (fun () -> f buf)

let test_progress_human () =
  with_progress (fun buf ->
      let t = Progress.start ~total:4 "grid/test" in
      for _ = 1 to 4 do
        Progress.step t
      done;
      Progress.finish t;
      let lines = drain buf in
      Alcotest.(check int) "one line per step + the final one" 5
        (List.length lines);
      let first = List.hd lines in
      Alcotest.(check bool) "label and counts" true
        (contains ~needle:"qdp: grid/test 1/4 (25.0%)" first);
      Alcotest.(check bool) "eta on a partial line" true
        (contains ~needle:"eta" first);
      let last = List.nth lines 4 in
      Alcotest.(check bool) "final line marked done" true
        (contains ~needle:"4/4 (100.0%)" last && contains ~needle:" done" last))

let test_progress_json () =
  with_progress ~format:Progress.Json (fun buf ->
      let t = Progress.start ~total:2 "j" in
      Progress.step t;
      Progress.finish t;
      let lines = drain buf in
      List.iter (fun l -> ignore (Json.parse l)) lines;
      let last = List.nth lines (List.length lines - 1) in
      Alcotest.(check bool) "label serialized" true
        (contains ~needle:"\"progress\":\"j\"" last);
      Alcotest.(check bool) "final line flagged" true
        (contains ~needle:"\"done_flag\":true" last))

let test_progress_disabled () =
  let buf = Buffer.create 16 in
  Progress.configure ~interval_s:0.
    ~emit:(fun line -> Buffer.add_string buf line)
    ();
  (* not enabled: every call is a no-op *)
  let t = Progress.start ~total:2 "off" in
  Progress.step t;
  Progress.finish t;
  Alcotest.(check string) "nothing emitted" "" (Buffer.contents buf);
  Progress.configure ~interval_s:1.0 ()

let test_progress_bad_interval () =
  Alcotest.check_raises "negative interval rejected"
    (Invalid_argument "Qdp_obs.Progress.configure: interval_s >= 0.")
    (fun () -> Progress.configure ~interval_s:(-1.) ())

(* --- Json parser --- *)

let test_json_parse () =
  let j =
    Json.parse
      "{\"a\":[1,2.5,-3e2],\"s\":\"h\\u0041\\\"x\",\"b\":true,\"n\":null}"
  in
  (match Json.member "a" j with
  | Some (Json.Arr [ x; y; z ]) ->
      Alcotest.(check (option (float 0.))) "int" (Some 1.) (Json.num_opt x);
      Alcotest.(check (option (float 0.))) "float" (Some 2.5) (Json.num_opt y);
      Alcotest.(check (option (float 0.))) "exponent" (Some (-300.))
        (Json.num_opt z)
  | _ -> Alcotest.fail "array missing");
  Alcotest.(check (option string)) "escapes decoded" (Some "hA\"x")
    (Option.bind (Json.member "s" j) Json.string_opt);
  Alcotest.(check bool) "bool and null" true
    (Json.member "b" j = Some (Json.Bool true)
    && Json.member "n" j = Some Json.Null);
  let fails s =
    match Json.parse s with
    | _ -> false
    | exception Json.Parse_error _ -> true
  in
  Alcotest.(check bool) "truncated input rejected" true (fails "{\"a\":");
  Alcotest.(check bool) "trailing garbage rejected" true (fails "{} x");
  Alcotest.(check bool) "bare words rejected" true (fails "nope")

let test_json_unicode () =
  let parsed s =
    match Json.parse s with Json.String v -> v | _ -> Alcotest.fail "string"
  in
  Alcotest.(check string) "2-byte utf8" "\xc3\xa9" (parsed "\"\\u00e9\"");
  Alcotest.(check string) "3-byte utf8" "\xe2\x82\xac" (parsed "\"\\u20aC\"");
  Alcotest.(check string) "surrogate pair decodes to 4-byte utf8"
    "\xf0\x9d\x84\x9e"
    (parsed "\"\\ud834\\udd1e\"");
  let fails s =
    match Json.parse s with
    | _ -> false
    | exception Json.Parse_error _ -> true
  in
  Alcotest.(check bool) "lone high surrogate rejected" true
    (fails "\"\\ud834\"");
  Alcotest.(check bool) "high surrogate + non-escape rejected" true
    (fails "\"\\ud834x\"");
  Alcotest.(check bool) "inverted surrogate pair rejected" true
    (fails "\"\\udd1e\\ud834\"");
  Alcotest.(check bool) "high surrogate twice rejected" true
    (fails "\"\\ud834\\ud834\"");
  (* int_of_string would take all of these *)
  Alcotest.(check bool) "underscore in hex rejected" true (fails "\"\\u1_23\"");
  Alcotest.(check bool) "sign in hex rejected" true (fails "\"\\u+123\"");
  Alcotest.(check bool) "space in hex rejected" true (fails "\"\\u 123\"");
  Alcotest.(check bool) "truncated hex rejected" true (fails "\"\\u12\"")

(* Numbers must be lexed against the RFC 8259 grammar, not handed to
   [float_of_string]: OCaml float syntax is a strict superset and used
   to let non-JSON like [+1], [01], [1.], [.5], hex floats and [_]
   separators through silently. *)
let test_json_strict_numbers () =
  let num s =
    match Json.parse s with
    | Json.Num f -> f
    | _ -> Alcotest.failf "expected number for %s" s
  in
  List.iter
    (fun (s, v) -> Alcotest.(check (float 0.)) s v (num s))
    [
      ("0", 0.);
      ("-0", 0.);
      ("10", 10.);
      ("2.5", 2.5);
      ("0.5", 0.5);
      ("-3e2", -300.);
      ("1e+2", 100.);
      ("1E-2", 0.01);
      ("123.456e2", 12345.6);
    ];
  let fails s =
    match Json.parse s with
    | _ -> false
    | exception Json.Parse_error _ -> true
  in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " rejected") true (fails s))
    [
      "+1" (* leading plus *);
      "01" (* leading zero *);
      "-01";
      "1." (* bare trailing dot *);
      ".5" (* bare leading dot *);
      "-.5";
      "-" (* sign alone *);
      "1e" (* empty exponent *);
      "1e+";
      "1.e2" (* empty fraction *);
      "0x10" (* OCaml hex float syntax *);
      "1_000" (* OCaml separators *);
      "nan";
      "infinity";
      "1.5.2" (* trailing garbage *);
      "[1.]" (* inside containers too *);
      "{\"a\":+1}";
    ]

(* Fuzz: everything the emitter prints must reparse to the same float
   — strictness must not reject our own output.  [Json.float] maps
   non-finite values to null, so only finite floats round-trip as
   numbers. *)
let prop_json_number_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"json number emit/parse roundtrip"
    QCheck.float (fun f ->
      match Json.parse (Json.float f) with
      | Json.Num f' -> Float.is_finite f && Float.equal f f'
      | Json.Null -> not (Float.is_finite f)
      | _ -> false)

let test_json_depth () =
  (* 512 levels parse; hostile nesting raises Parse_error instead of
     blowing the stack. *)
  let nest k = String.make k '[' ^ "1" ^ String.make k ']' in
  (match Json.parse (nest 512) with
  | Json.Arr _ -> ()
  | _ -> Alcotest.fail "expected array");
  let deep = String.make 100_000 '[' in
  Alcotest.check_raises "nesting too deep"
    (Json.Parse_error "offset 513: nesting too deep") (fun () ->
      ignore (Json.parse (nest 600)));
  (match Json.parse deep with
  | _ -> Alcotest.fail "unclosed deep nest accepted"
  | exception Json.Parse_error _ -> ());
  match Json.parse (String.concat "" (List.init 1000 (fun _ -> "{\"k\":")))
  with
  | _ -> Alcotest.fail "deep object accepted"
  | exception Json.Parse_error _ -> ()

(* Fuzz: [escape] output must always reparse to the original string,
   for arbitrary bytes (including control chars and quotes). *)
let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json escape/parse roundtrip"
    QCheck.(string_gen_of_size Gen.(0 -- 64) Gen.char)
    (fun s ->
      match Json.parse (Json.str s) with
      | Json.String s' -> String.equal s s'
      | _ -> false)

(* Fuzz: the parser must never escape with anything but Parse_error on
   arbitrary junk — no Failure from int_of_string, no Stack_overflow. *)
let prop_json_no_crash =
  let gen =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:char (0 -- 80);
          (* bias toward almost-JSON inputs: mutate one byte of a valid
             document *)
          map2
            (fun i c ->
              let doc = "{\"a\":[1,\"\\ud834\\udd1e\",null],\"b\":-2.5e3}" in
              let b = Bytes.of_string doc in
              Bytes.set b (i mod Bytes.length b) c;
              Bytes.to_string b)
            (0 -- 100) char;
        ])
  in
  QCheck.Test.make ~count:1000 ~name:"json parser total on junk"
    (QCheck.make gen) (fun s ->
      match Json.parse s with
      | _ -> true
      | exception Json.Parse_error _ -> true)

(* --- Clock --- *)

(* The monotonic clamp behind every elapsed-time measurement: a
   backwards step of the underlying source (NTP correction) must never
   surface as time going backwards, and swapping sources resets the
   clamp so a fake clock can start anywhere. *)
let test_clock_monotonic_clamp () =
  let t = ref 100. in
  Qdp_obs.Clock.set_source (Some (fun () -> !t));
  Fun.protect ~finally:(fun () -> Qdp_obs.Clock.set_source None)
  @@ fun () ->
  Alcotest.(check (float 0.)) "first read" 100. (Qdp_obs.Clock.now ());
  t := 50.;
  Alcotest.(check (float 0.)) "backwards step clamped" 100.
    (Qdp_obs.Clock.now ());
  t := 150.;
  Alcotest.(check (float 0.)) "forward step passes through" 150.
    (Qdp_obs.Clock.now ());
  t := 149.999;
  Alcotest.(check (float 0.)) "small backwards step clamped" 150.
    (Qdp_obs.Clock.now ());
  t := 150.;
  Alcotest.(check (float 0.)) "equal reading holds" 150.
    (Qdp_obs.Clock.now ());
  (* a swap resets the clamp: the fake 150 does not pin a new source
     that starts lower *)
  Qdp_obs.Clock.set_source (Some (fun () -> 10.));
  Alcotest.(check (float 0.)) "swap resets the clamp" 10.
    (Qdp_obs.Clock.now ())

let test_clock_real_source () =
  (* after [set_source None] the real clock is live again and
     non-decreasing *)
  let a = Qdp_obs.Clock.now () in
  let b = Qdp_obs.Clock.now () in
  Alcotest.(check bool) "real clock non-decreasing" true (b >= a);
  Alcotest.(check bool) "real clock plausible epoch" true (a > 1e9)

(* --- Perf_diff --- *)

let metric ?(group = "g") ?seconds key value =
  {
    Perf_diff.m_key = key;
    m_group = group;
    m_value = value;
    m_seconds = (match seconds with Some s -> s | None -> value);
  }

let verdict_of config ~old_value ~new_value =
  let r =
    Perf_diff.diff config
      ~old_:[ metric "g.x_s" old_value ]
      ~new_:[ metric "g.x_s" new_value ]
  in
  match r.Perf_diff.compared with
  | [ c ] -> c.Perf_diff.c_verdict
  | _ -> Alcotest.fail "expected one comparison"

let test_diff_verdicts () =
  let cfg = Perf_diff.default_config in
  let check_verdict name expected ~old_value ~new_value =
    let pp_verdict fmt v =
      Format.pp_print_string fmt
        (match v with
        | Perf_diff.Regression -> "Regression"
        | Improvement -> "Improvement"
        | Within_noise -> "Within_noise"
        | Below_floor -> "Below_floor")
    in
    Alcotest.(check (testable pp_verdict ( = )))
      name expected
      (verdict_of cfg ~old_value ~new_value)
  in
  check_verdict "self vs self" Perf_diff.Within_noise ~old_value:1.0
    ~new_value:1.0;
  check_verdict "2x slower regresses" Perf_diff.Regression ~old_value:1.0
    ~new_value:2.0;
  check_verdict "+5% is noise" Perf_diff.Within_noise ~old_value:1.0
    ~new_value:1.05;
  check_verdict "2x faster improves" Perf_diff.Improvement ~old_value:1.0
    ~new_value:0.5;
  check_verdict "sub-floor 2x never flagged" Perf_diff.Below_floor
    ~old_value:0.001 ~new_value:0.002;
  (* per-group override: the same 1.5x passes under a 1.0 threshold *)
  let lax = { cfg with Perf_diff.group_thresholds = [ ("g", 1.0) ] } in
  Alcotest.(check bool) "group threshold overrides the default" true
    (verdict_of lax ~old_value:1.0 ~new_value:1.5 = Perf_diff.Within_noise);
  let r =
    Perf_diff.diff cfg
      ~old_:[ metric "g.a_s" 1.0; metric "g.gone_s" 1.0 ]
      ~new_:[ metric "g.a_s" 2.0; metric "g.new_s" 1.0 ]
  in
  Alcotest.(check int) "regressions counted" 1 (Perf_diff.regressions r);
  Alcotest.(check (list string)) "only_old" [ "g.gone_s" ] r.Perf_diff.only_old;
  Alcotest.(check (list string)) "only_new" [ "g.new_s" ] r.Perf_diff.only_new;
  let report = Format.asprintf "%a" Perf_diff.pp_report r in
  Alcotest.(check bool) "report flags the regression" true
    (contains ~needle:"REGRESSION" report);
  Alcotest.(check bool) "report has the summary line" true
    (contains ~needle:"1 compared" report || contains ~needle:"compared:" report)

let perf_fixture ~seq ~par =
  Printf.sprintf
    "{\"jobs\":4,\"host\":{\"cores\":4,\"recommended_domains\":4},\n\
     \"kernels\":[{\"kernel\":\"k\",\"naive_s\":1.0,\"batched_s\":0.5,\"speedup\":2.0}],\n\
     \"groups\":[{\"group\":\"gram_batch\",\"sequential_s\":%.6f,\"parallel_s\":%.6f,\"speedup\":1.0}]}"
    seq par

let test_diff_extract_perf () =
  let ms = Perf_diff.metrics_of_string (perf_fixture ~seq:2.0 ~par:1.0) in
  let keys = List.map (fun m -> m.Perf_diff.m_key) ms in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " extracted") true (List.mem k keys))
    [
      "gram_batch.sequential_s";
      "gram_batch.parallel_s";
      "kernel.k.naive_s";
      "kernel.k.batched_s";
    ];
  Alcotest.(check bool) "speedup (not a *_s field) skipped" true
    (not (List.exists (fun k -> contains ~needle:"speedup" k) keys));
  (* the acceptance fixture pair: self-diff is clean, a synthetic 2x
     slowdown on a real group trips the gate *)
  let old_ = Perf_diff.metrics_of_string (perf_fixture ~seq:1.0 ~par:0.5) in
  let self =
    Perf_diff.diff Perf_diff.default_config ~old_ ~new_:old_
  in
  Alcotest.(check int) "self vs self: no regressions" 0
    (Perf_diff.regressions self);
  let slow = Perf_diff.metrics_of_string (perf_fixture ~seq:2.0 ~par:1.0) in
  Alcotest.(check bool) "2x fixture regresses" true
    (Perf_diff.regressions
       (Perf_diff.diff Perf_diff.default_config ~old_ ~new_:slow)
    > 0)

let test_diff_extract_obs () =
  let fixture =
    "{\"trace\":{\"spans\":1,\"dropped\":0},\n\
     \"metrics_snapshot\":{\"metrics\":[\n\
     {\"name\":\"runtime.round.seconds\",\"kind\":\"histogram\",\"count\":4,\"sum\":2.0,\"min\":0.4,\"max\":0.6},\n\
     {\"name\":\"runtime.runs\",\"kind\":\"counter\",\"value\":7},\n\
     {\"name\":\"xval.empty.seconds\",\"kind\":\"histogram\",\"count\":0,\"sum\":0.0,\"min\":0,\"max\":0}]}}"
  in
  match Perf_diff.metrics_of_string fixture with
  | [ m ] ->
      Alcotest.(check string) "only the populated .seconds histogram"
        "runtime.round.seconds.mean" m.Perf_diff.m_key;
      Alcotest.(check (float 1e-12)) "value is the mean" 0.5 m.Perf_diff.m_value;
      Alcotest.(check string) "grouped by span name" "runtime.round"
        m.Perf_diff.m_group
  | ms -> Alcotest.failf "expected one metric, got %d" (List.length ms)

let test_diff_slowdowns () =
  let cfg = Perf_diff.default_config in
  let check ~seq ~par =
    Perf_diff.slowdowns cfg (Json.parse (perf_fixture ~seq ~par))
  in
  Alcotest.(check int) "healthy speedup: clean" 0
    (List.length (check ~seq:1.0 ~par:0.5));
  Alcotest.(check int) "parity within noise band: clean" 0
    (List.length (check ~seq:1.0 ~par:1.2));
  (match check ~seq:0.1 ~par:0.5 with
  | [ s ] ->
      Alcotest.(check string) "group named" "gram_batch"
        s.Perf_diff.s_group;
      Alcotest.(check (float 1e-9)) "ratio" 5.0 s.Perf_diff.s_ratio
  | l -> Alcotest.failf "expected one slowdown, got %d" (List.length l));
  Alcotest.(check int) "below the min-seconds floor: never flagged" 0
    (List.length (check ~seq:0.001 ~par:0.004));
  Alcotest.(check int) "non-perf shape: vacuously clean" 0
    (List.length
       (Perf_diff.slowdowns cfg (Json.parse "{\"trace\":{}}")));
  (* per-group threshold overrides apply *)
  let lax = { cfg with group_thresholds = [ ("gram_batch", 10.) ] } in
  Alcotest.(check int) "group override widens the band" 0
    (List.length
       (Perf_diff.slowdowns lax (Json.parse (perf_fixture ~seq:0.1 ~par:0.5))))

let test_diff_malformed () =
  let fails s =
    match Perf_diff.metrics_of_string s with
    | _ -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "malformed JSON rejected" true (fails "{\"a\":");
  Alcotest.(check bool) "unrecognized shape rejected" true (fails "{}")

let () =
  Alcotest.run "prof"
    [
      ( "prof",
        [
          Alcotest.test_case "section nesting + tree" `Quick test_section_nesting;
          Alcotest.test_case "gc attribution" `Quick test_gc_attribution;
          Alcotest.test_case "disabled no-op + budget" `Quick test_disabled_noop;
          Alcotest.test_case "exception safety" `Quick test_section_exception;
          Alcotest.test_case "domain busy/idle" `Quick test_domain_stats;
          Alcotest.test_case "json export" `Quick test_prof_json;
          Alcotest.test_case "kernel calls jobs invariance" `Quick
            test_kernel_calls_jobs_invariance;
        ] );
      ( "progress",
        [
          Alcotest.test_case "human heartbeat" `Quick test_progress_human;
          Alcotest.test_case "json heartbeat" `Quick test_progress_json;
          Alcotest.test_case "disabled" `Quick test_progress_disabled;
          Alcotest.test_case "bad interval" `Quick test_progress_bad_interval;
        ] );
      ( "json",
        [
          Alcotest.test_case "parser" `Quick test_json_parse;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
          Alcotest.test_case "strict numbers" `Quick test_json_strict_numbers;
          Alcotest.test_case "nesting depth" `Quick test_json_depth;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_number_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_no_crash;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic clamp" `Quick test_clock_monotonic_clamp;
          Alcotest.test_case "real source" `Quick test_clock_real_source;
        ] );
      ( "perf_diff",
        [
          Alcotest.test_case "verdicts" `Quick test_diff_verdicts;
          Alcotest.test_case "extract perf" `Quick test_diff_extract_perf;
          Alcotest.test_case "extract obs" `Quick test_diff_extract_obs;
          Alcotest.test_case "slowdown self-check" `Quick test_diff_slowdowns;
          Alcotest.test_case "malformed input" `Quick test_diff_malformed;
        ] );
    ]
