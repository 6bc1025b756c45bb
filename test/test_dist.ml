(* Tests for the Qdp_dist multi-process coordinator: backoff policy
   math, wire-frame round-trips and CRC detection, worker-pool results
   vs. the sequential path (byte-identity under chaos injection, the
   central invariant), shard accounting (nothing lost, nothing
   double-counted), degradation paths (attempt budget, respawn budget,
   pool-started fallback) and exception transparency.

   Ordering matters: every test before [domains interplay] must leave
   the Qdp_par domain pool unstarted (jobs pinned to 1), because
   OCaml 5 forbids fork once a domain has been spawned — which is
   itself the behaviour the final tests pin down. *)

module Dist = Qdp_dist
module Backoff = Qdp_dist.Backoff
module Frame = Qdp_dist.Frame

let () = Qdp_core.Protocols.init ()

(* Keep the pool cold: the sequential baseline for every identity
   check below, and the precondition for forking at all.  The
   oversubscription clamp is disabled so that when [domains interplay]
   finally raises the budget, the pool genuinely starts even on a
   1-core host. *)
let () = Qdp_par.set_jobs 1
let () = Qdp_par.set_oversubscribe true

let with_dist ~workers ?(chaos = 0.0) ?(chaos_seed = 42) ?(timeout = 5.0)
    ?(retries = 4) ?(respawns = -1) f =
  Dist.set_workers workers;
  Dist.set_chaos chaos;
  Dist.set_chaos_seed chaos_seed;
  Dist.set_shard_timeout timeout;
  Dist.set_max_attempts retries;
  Dist.set_respawn_budget respawns;
  Fun.protect
    ~finally:(fun () ->
      Dist.set_workers 0;
      Dist.set_chaos 0.0;
      Dist.set_chaos_seed 42;
      Dist.set_shard_timeout 30.0;
      Dist.set_max_attempts 4;
      Dist.set_respawn_budget (-1))
    f

let report () =
  match Dist.last_report () with
  | Some r -> r
  | None -> Alcotest.fail "no report recorded"

(* [f ()] with observability on, paired with how much it moved the
   [dist.fallbacks] counter. *)
let counting_fallbacks f =
  Qdp_obs.with_enabled true (fun () ->
      let count () =
        match
          Qdp_obs.Metrics.find (Qdp_obs.Metrics.snapshot ()) "dist.fallbacks"
        with
        | Some (Qdp_obs.Metrics.Counter_v v) -> v
        | _ -> 0
      in
      let before = count () in
      let r = f () in
      (r, count () - before))

(* --- backoff --- *)

let test_backoff_delays () =
  let p = Backoff.default in
  let st = Random.State.make [| 7 |] in
  for attempt = 1 to 8 do
    let d = Backoff.delay p ~st ~attempt in
    let raw =
      min p.Backoff.max_delay_s
        (p.Backoff.base_s *. (p.Backoff.factor ** float_of_int (attempt - 1)))
    in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d within jitter band" attempt)
      true
      (d >= raw *. (1.0 -. p.Backoff.jitter) -. 1e-12
      && d <= raw *. (1.0 +. p.Backoff.jitter) +. 1e-12)
  done;
  (* same seed, same delays *)
  let seq st = List.init 5 (fun i -> Backoff.delay p ~st ~attempt:(i + 1)) in
  Alcotest.(check (list (float 0.)))
    "seeded delays reproduce"
    (seq (Random.State.make [| 9 |]))
    (seq (Random.State.make [| 9 |]))

let test_backoff_immediate () =
  let p = Backoff.immediate ~max_attempts:3 in
  let st = Random.State.make [| 1 |] in
  let before = Random.State.bits (Random.State.copy st) in
  Alcotest.(check (float 0.))
    "immediate delay is zero" 0.0
    (Backoff.delay p ~st ~attempt:5);
  Alcotest.(check int)
    "immediate draws nothing" before
    (Random.State.bits st);
  Alcotest.check_raises "zero attempts rejected"
    (Invalid_argument "Backoff.immediate: need at least one attempt")
    (fun () -> ignore (Backoff.immediate ~max_attempts:0))

let test_backoff_run () =
  let p = Backoff.immediate ~max_attempts:4 in
  let calls = ref 0 in
  let retries = ref [] in
  let r =
    Backoff.run ~sleep:(fun _ -> ())
      ~on_retry:(fun ~attempt ~delay_s:_ -> retries := attempt :: !retries)
      p
      ~retry_if:(fun v -> v < 0)
      (fun ~attempt ->
        incr calls;
        if attempt < 3 then -1 else attempt)
  in
  Alcotest.(check int) "returns first success" 3 r;
  Alcotest.(check int) "stops after success" 3 !calls;
  Alcotest.(check (list int)) "on_retry per failure" [ 2; 1 ] !retries;
  let r =
    Backoff.run ~sleep:(fun _ -> ()) p ~retry_if:(fun _ -> true) (fun ~attempt -> attempt)
  in
  Alcotest.(check int) "budget caps attempts" 4 r

(* --- framing --- *)

let all_msgs =
  [
    Frame.Task { shard = 0; attempt = 1 };
    Frame.Ack { shard = 12345; attempt = 3 };
    Frame.Result { shard = 7; attempt = 2; payload = "" };
    Frame.Result { shard = 999; attempt = 9; payload = String.make 5000 '\161' };
    Frame.Failed { shard = 1; attempt = 1; reason = "Division_by_zero" };
    Frame.Stop;
  ]

let feed_all r s =
  Frame.feed r (Bytes.of_string s) (String.length s)

let test_frame_roundtrip () =
  let r = Frame.reader () in
  (* all frames concatenated, delivered one byte at a time *)
  let wire = String.concat "" (List.map Frame.encode all_msgs) in
  let got = ref [] in
  String.iter
    (fun c ->
      feed_all r (String.make 1 c);
      match Frame.next r with
      | `Msg m -> got := m :: !got
      | `More -> ()
      | `Corrupt -> Alcotest.fail "spurious corruption")
    wire;
  Alcotest.(check int) "all frames decoded" (List.length all_msgs)
    (List.length !got);
  Alcotest.(check bool) "frames round-trip" true (List.rev !got = all_msgs)

let test_frame_crc () =
  Alcotest.(check int32)
    "CRC-32 known answer" 0xCBF43926l
    (Frame.crc32 "123456789");
  (* flipping any single byte after the magic must never decode *)
  let base = Frame.encode (Frame.Result { shard = 3; attempt = 1; payload = "hello" }) in
  for i = 4 to String.length base - 1 do
    let b = Bytes.of_string base in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    let r = Frame.reader () in
    Frame.feed r b (Bytes.length b);
    match Frame.next r with
    | `Msg _ -> Alcotest.failf "flipped byte %d decoded" i
    | `Corrupt | `More -> ()
  done;
  (* garbage before a valid frame is corruption, not a frame *)
  let r = Frame.reader () in
  feed_all r "NOISE";
  (match Frame.next r with
  | `Corrupt -> ()
  | _ -> Alcotest.fail "bad magic not flagged")

(* --- map_shards: plain identity and accounting --- *)

let shard_value i =
  (* self-seeded per index, like every wired grid *)
  let st = Random.State.make [| 0xBEEF; i |] in
  (i, Random.State.float st 1.0)

let seq_shards n = Array.init n shard_value
let mc_trial st = Random.State.float st 1.0 < 0.37

let test_map_shards_identity () =
  let expected = seq_shards 37 in
  with_dist ~workers:3 (fun () ->
      let got = Dist.map_shards ~label:"t/id" ~n:37 shard_value in
      Alcotest.(check bool) "workers match sequential" true (got = expected);
      let r = report () in
      Alcotest.(check int) "all shards accounted" 37
        (r.Dist.rp_from_workers + r.Dist.rp_in_process);
      Alcotest.(check bool) "forked for real" false r.Dist.rp_fallback;
      Alcotest.(check int) "no duplicates" 0 r.Dist.rp_duplicates)

let test_map_shards_empty_and_zero_workers () =
  with_dist ~workers:4 (fun () ->
      Alcotest.(check bool)
        "n=0 is empty" true
        (Dist.map_shards ~n:0 shard_value = [||]));
  with_dist ~workers:0 (fun () ->
      Alcotest.(check bool)
        "workers=0 in-process" true
        (Dist.map_shards ~n:5 shard_value = seq_shards 5));
  (* Nothing to fork for is not a fallback: a one-shard region, and a
     region nested inside another, run in-process without touching
     [dist.fallbacks] or the last report. *)
  let one_shard () =
    Dist.monte_carlo_hits ~label:"t/one" ~st:(Random.State.make [| 3 |])
      ~trials:10 mc_trial
  in
  let expected = with_dist ~workers:0 one_shard in
  with_dist ~workers:2 (fun () ->
      let before = Dist.last_report () in
      let hits, fallbacks = counting_fallbacks one_shard in
      Alcotest.(check int) "one shard: same hits" expected hits;
      Alcotest.(check int) "one shard: no fallback" 0 fallbacks;
      Alcotest.(check bool) "one shard: no report" true
        (Dist.last_report () == before);
      let got, fallbacks =
        counting_fallbacks (fun () ->
            Dist.map_shards ~label:"t/outer" ~n:1 (fun _ ->
                Dist.map_shards ~label:"t/inner" ~n:5 shard_value))
      in
      Alcotest.(check bool) "nested: in-process result" true
        (got = [| seq_shards 5 |]);
      Alcotest.(check int) "nested: no fallback" 0 fallbacks;
      Alcotest.(check bool) "nested: no report" true
        (Dist.last_report () == before));
  (* A shard's own [Failure] is recomputed once in the coordinator and
     re-raised; it must not be mistaken for a failed fork and rerun the
     whole grid in-process.  Workers append to their own copy of
     [seen], so it lists only what the coordinator evaluated. *)
  let seen = ref [] in
  with_dist ~workers:2 (fun () ->
      Alcotest.check_raises "shard Failure re-raised" (Failure "boom")
        (fun () ->
          ignore
            (Dist.map_shards ~label:"t/failure" ~n:4 (fun i ->
                 seen := i :: !seen;
                 if i = 2 then failwith "boom" else i * i))));
  Alcotest.(check (list int)) "coordinator reran only the failing shard"
    [ 2 ] (List.rev !seen)

(* --- chaos: the central invariant --- *)

let chaos_identity ~p ~seed ~n =
  let expected = seq_shards n in
  with_dist ~workers:3 ~chaos:p ~chaos_seed:seed ~timeout:0.3 (fun () ->
      let got = Dist.map_shards ~label:"t/chaos" ~n shard_value in
      Alcotest.(check bool)
        (Printf.sprintf "chaos p=%.2f seed=%d byte-identical" p seed)
        true (got = expected);
      let r = report () in
      Alcotest.(check int)
        "nothing lost or double-counted" n
        (r.Dist.rp_from_workers + r.Dist.rp_in_process))

let test_chaos_identity () =
  chaos_identity ~p:0.3 ~seed:1 ~n:24;
  chaos_identity ~p:0.5 ~seed:2 ~n:24

let test_chaos_total () =
  (* p=1: every attempt sabotaged, every shard must degrade in-process
     and the output still matches *)
  let n = 8 in
  let expected = seq_shards n in
  with_dist ~workers:2 ~chaos:1.0 ~chaos_seed:5 ~timeout:0.3 ~retries:2
    (fun () ->
      let got = Dist.map_shards ~label:"t/total" ~n shard_value in
      Alcotest.(check bool) "p=1 still byte-identical" true (got = expected);
      let r = report () in
      Alcotest.(check int) "all shards degraded" n r.Dist.rp_degraded;
      Alcotest.(check int) "all computed in-process" n r.Dist.rp_in_process)

let prop_chaos_qcheck =
  QCheck.Test.make ~count:8 ~name:"chaos schedule never changes results"
    QCheck.(pair (int_bound 1000) (int_bound 1))
    (fun (seed, pi) ->
      let p = if pi = 0 then 0.3 else 0.6 in
      let n = 16 in
      let expected = seq_shards n in
      with_dist ~workers:2 ~chaos:p ~chaos_seed:seed ~timeout:0.3 (fun () ->
          let got = Dist.map_shards ~label:"t/qc" ~n shard_value in
          let r = report () in
          got = expected
          && r.Dist.rp_from_workers + r.Dist.rp_in_process = n
          && r.Dist.rp_duplicates = 0))

let test_chaos_deterministic_schedule () =
  (* same config twice: identical event accounting, not just results *)
  let run () =
    with_dist ~workers:2 ~chaos:0.5 ~chaos_seed:11 ~timeout:0.3 (fun () ->
        ignore (Dist.map_shards ~label:"t/det" ~n:20 shard_value);
        let r = report () in
        ( r.Dist.rp_retries,
          r.Dist.rp_degraded,
          r.Dist.rp_from_workers,
          r.Dist.rp_in_process ))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "event accounting reproduces" true (a = b)

(* --- degradation paths --- *)

let test_full_degradation () =
  (* respawn budget 0 + certain crashes: the pool empties and the
     whole tail runs in-process, still byte-identical *)
  let n = 10 in
  let expected = seq_shards n in
  with_dist ~workers:2 ~chaos:1.0 ~chaos_seed:3 ~timeout:0.3 ~respawns:0
    (fun () ->
      let got = Dist.map_shards ~label:"t/degrade" ~n shard_value in
      Alcotest.(check bool) "degraded run byte-identical" true (got = expected);
      let r = report () in
      Alcotest.(check int) "no respawns granted" 0 r.Dist.rp_respawns;
      Alcotest.(check int) "everything accounted" n
        (r.Dist.rp_from_workers + r.Dist.rp_in_process))

exception Boom of int

let test_worker_exception_propagates () =
  with_dist ~workers:2 (fun () ->
      Alcotest.check_raises "shard exception re-raised" (Boom 4) (fun () ->
          ignore
            (Dist.map_shards ~label:"t/raise" ~n:8 (fun i ->
                 if i = 4 then raise (Boom i) else i))))

(* --- metric shipping --- *)

let test_metrics_cross_process () =
  let c = Qdp_obs.Metrics.counter "test.dist.work" in
  Qdp_obs.with_enabled true (fun () ->
      Qdp_obs.Metrics.reset ();
      with_dist ~workers:2 (fun () ->
          ignore
            (Dist.map_shards ~label:"t/metrics" ~n:12 (fun i ->
                 Qdp_obs.Metrics.incr c;
                 i)));
      let snap = Qdp_obs.Metrics.snapshot () in
      (match Qdp_obs.Metrics.find snap "test.dist.work" with
      | Some (Qdp_obs.Metrics.Counter_v v) ->
          Alcotest.(check int) "worker increments shipped home" 12 v
      | _ -> Alcotest.fail "counter missing");
      match Qdp_obs.Metrics.find snap "dist.results" with
      | Some (Qdp_obs.Metrics.Counter_v v) ->
          Alcotest.(check bool) "dist.results visible" true (v > 0)
      | _ -> Alcotest.fail "dist.results missing")

(* --- monte_carlo_hits identity --- *)

let test_monte_carlo_identity () =
  let run ~seed ~trials () =
    let st = Random.State.make [| seed |] in
    let hits = Dist.monte_carlo_hits ~st ~trials mc_trial in
    (* the caller's state must advance identically too *)
    (hits, Random.State.bits st)
  in
  (* pinned values: any change to the chunk size or the split order
     changes every sampled number in the tables *)
  let seq = with_dist ~workers:0 (run ~seed:2024 ~trials:5000) in
  Alcotest.(check (pair int int)) "seed 2024, 5000 trials" (1825, 669240263) seq;
  let dist = with_dist ~workers:3 (run ~seed:2024 ~trials:5000) in
  Alcotest.(check bool) "workers=3 identical incl. caller state" true
    (dist = seq);
  let chaotic =
    with_dist ~workers:3 ~chaos:0.4 ~chaos_seed:8 ~timeout:0.3
      (run ~seed:2024 ~trials:5000)
  in
  Alcotest.(check bool) "chaotic run identical" true (chaotic = seq);
  (* chunk-boundary trial counts *)
  List.iter
    (fun (seed, trials) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "seed %d trials %d: workers 0 = workers 3" seed trials)
        (with_dist ~workers:0 (run ~seed ~trials))
        (with_dist ~workers:3 (run ~seed ~trials)))
    [ (1, 1); (2, 63); (3, 64); (4, 65); (5, 1000); (6, 2048) ];
  Alcotest.(check int) "trials <= 0 gives 0 hits" 0
    (Dist.monte_carlo_hits ~st:(Random.State.make [| 9 |]) ~trials:0 (fun _ ->
         true))

(* --- cross_validate / sweep identity through the wiring --- *)

let test_cross_validate_identity () =
  let open Qdp_core in
  let spec = { Registry.default_spec with seed = 5; n = 12; r = 3; t = 3 } in
  let entry =
    match Registry.find "eq" with
    | Some e -> e
    | None -> Alcotest.fail "eq not registered"
  in
  let run () =
    let st = Random.State.make [| 0xc5; 77 |] in
    match Registry.cross_validate_demo ~trials:400 ~st spec entry with
    | None -> Alcotest.fail "eq has no network backend"
    | Some results ->
        List.concat_map
          (fun (label, checks) ->
            List.map
              (fun c ->
                Printf.sprintf "%s/%s %.17g %.17g %d %.17g %b" label
                  c.Dqma.check_strategy c.Dqma.analytic c.Dqma.sampled
                  c.Dqma.trials c.Dqma.tolerance c.Dqma.agree)
              checks)
          results
        |> String.concat "\n"
  in
  let baseline = with_dist ~workers:0 run in
  let dist = with_dist ~workers:2 run in
  Alcotest.(check string) "xval byte-identical with workers" baseline dist;
  let chaotic =
    with_dist ~workers:2 ~chaos:0.5 ~chaos_seed:13 ~timeout:1.0 run
  in
  Alcotest.(check string) "xval byte-identical under chaos" baseline chaotic

(* --- interplay with the domain pool (must stay last) --- *)

let test_domains_interplay () =
  let n = 21 in
  let expected = seq_shards n in
  (* start the pool for real *)
  Qdp_par.set_jobs 4;
  ignore (Qdp_par.map 64 Fun.id);
  Alcotest.(check bool) "pool is up" true (Qdp_par.pool_started ());
  let inner i =
    Dist.monte_carlo_hits ~label:"t/inner" ~st:(Random.State.make [| i |])
      ~trials:200 mc_trial
  in
  let inner_expected = Array.init 4 inner in
  with_dist ~workers:3 (fun () ->
      let got = Dist.map_shards ~label:"t/pool" ~n shard_value in
      Alcotest.(check bool) "pool-started fallback identical" true
        (got = expected);
      let r = report () in
      Alcotest.(check bool) "fallback recorded" true r.Dist.rp_fallback;
      (* shards running nested grids: one fallback, the outer region's *)
      let got, fallbacks =
        counting_fallbacks (fun () -> Dist.map_shards ~label:"t/pool" ~n:4 inner)
      in
      Alcotest.(check bool) "nested fallback identical" true
        (got = inner_expected);
      Alcotest.(check int) "one fallback for the outer region" 1 fallbacks;
      Alcotest.(check string) "report names the outer region" "t/pool"
        (report ()).Dist.rp_label)

let () =
  Alcotest.run "dist"
    [
      ( "backoff",
        [
          Alcotest.test_case "delay bands" `Quick test_backoff_delays;
          Alcotest.test_case "immediate" `Quick test_backoff_immediate;
          Alcotest.test_case "run loop" `Quick test_backoff_run;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "crc detection" `Quick test_frame_crc;
        ] );
      ( "map_shards",
        [
          Alcotest.test_case "identity" `Quick test_map_shards_identity;
          Alcotest.test_case "edges" `Quick test_map_shards_empty_and_zero_workers;
          Alcotest.test_case "exception" `Quick test_worker_exception_propagates;
          Alcotest.test_case "metrics shipped" `Quick test_metrics_cross_process;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "identity" `Quick test_chaos_identity;
          Alcotest.test_case "total sabotage" `Quick test_chaos_total;
          QCheck_alcotest.to_alcotest prop_chaos_qcheck;
          Alcotest.test_case "deterministic accounting" `Quick
            test_chaos_deterministic_schedule;
          Alcotest.test_case "full degradation" `Quick test_full_degradation;
        ] );
      ( "grids",
        [
          Alcotest.test_case "monte carlo" `Quick test_monte_carlo_identity;
          Alcotest.test_case "cross validate" `Slow test_cross_validate_identity;
        ] );
      ( "pool",
        [ Alcotest.test_case "fallback after domains" `Quick test_domains_interplay ] );
    ]
