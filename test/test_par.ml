(* Tests for the Qdp_par domain pool: scheduling semantics (coverage,
   exception propagation, nesting, jobs=1 equivalence), the
   deterministic split-RNG Monte-Carlo contract (jobs=1 vs jobs=4
   byte-identity of acceptance estimates, fault-sweep curves and
   cross-validation verdicts), and concurrent hammering of the
   Fingerprint memo from 4 domains. *)

module Par = Qdp_par

let () = Qdp_core.Protocols.init ()

(* These tests exercise real pool semantics (spawning, helping,
   nesting) at jobs=4 regardless of host core count, so disable the
   effective-jobs oversubscription clamp. *)
let () = Par.set_oversubscribe true

let with_jobs n f =
  let old = Par.jobs () in
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs old) f

(* --- pool semantics --- *)

let test_map_covers () =
  with_jobs 4 (fun () ->
      let hits = Array.make 1000 0 in
      let out =
        Par.map 1000 (fun i ->
            hits.(i) <- hits.(i) + 1;
            (2 * i) + 1)
      in
      Alcotest.(check bool)
        "each index ran exactly once" true
        (Array.for_all (( = ) 1) hits);
      Alcotest.(check (array int))
        "map matches Array.init"
        (Array.init 1000 (fun i -> (2 * i) + 1))
        out)

let test_map_empty () =
  with_jobs 4 (fun () ->
      Alcotest.(check (array int))
        "empty range" [||]
        (Par.map 0 (fun _ -> Alcotest.fail "empty range ran")))

exception Boom of int

let test_exception_propagates () =
  with_jobs 4 (fun () ->
      let ran_after = ref false in
      (try
         ignore (Par.map 64 (fun i -> if i >= 13 then raise (Boom i)));
         Alcotest.fail "exception swallowed"
       with Boom 13 -> ran_after := true);
      Alcotest.(check bool) "earliest Boom 13 re-raised" true !ran_after;
      (* the pool must stay usable after a failed region *)
      let sum = Atomic.make 0 in
      ignore (Par.map 100 (fun _ -> Atomic.fetch_and_add sum 1));
      Alcotest.(check int) "pool alive after exception" 100 (Atomic.get sum))

let test_nested () =
  with_jobs 4 (fun () ->
      let grid = Par.map 16 (fun i -> Par.map 16 (fun j -> (i * 16) + j)) in
      Alcotest.(check (array (array int)))
        "nested regions complete"
        (Array.init 16 (fun i -> Array.init 16 (fun j -> (i * 16) + j)))
        grid)

let test_jobs_one_sequential () =
  with_jobs 1 (fun () ->
      let trace = ref [] in
      ignore (Par.map 20 (fun i -> trace := i :: !trace));
      Alcotest.(check (list int))
        "jobs=1 runs in order on the caller"
        (List.init 20 (fun i -> 19 - i))
        !trace)

let test_set_jobs_invalid () =
  Alcotest.check_raises "set_jobs 0 rejected"
    (Invalid_argument "Qdp_par: set_jobs needs at least one job") (fun () ->
      Par.set_jobs 0)

(* --- deterministic Monte-Carlo --- *)

(* The grid front door over the pool: [Qdp_dist.monte_carlo_hits]
   runs its chunks in-process here (no worker processes). *)
let mc_hits ~jobs ~seed ~trials =
  with_jobs jobs (fun () ->
      let st = Random.State.make [| seed |] in
      let hits =
        Qdp_dist.monte_carlo_hits ~st ~trials (fun s -> Random.State.bool s)
      in
      (* the caller's state must also advance identically *)
      (hits, Random.State.int st 1_000_000))

let test_mc_jobs_invariant () =
  List.iter
    (fun (seed, trials) ->
      let h1 = mc_hits ~jobs:1 ~seed ~trials in
      let h4 = mc_hits ~jobs:4 ~seed ~trials in
      Alcotest.(check (pair int int))
        (Printf.sprintf "seed %d trials %d: jobs 1 = jobs 4" seed trials)
        h1 h4)
    [ (1, 1); (2, 63); (3, 64); (4, 65); (5, 1000); (6, 2048) ]

let qcheck_estimate_acceptance =
  QCheck.Test.make ~count:20
    ~name:"estimate_acceptance identical at jobs 1 and jobs 4"
    QCheck.(pair (int_bound 10_000) (int_range 1 600))
    (fun (seed, trials) ->
      let estimate jobs =
        with_jobs jobs (fun () ->
            let st = Random.State.make [| seed; 77 |] in
            Qdp_network.Runtime.estimate_acceptance ~st ~trials (fun s ->
                Random.State.float s 1. < 0.3))
      in
      estimate 1 = estimate 4)

(* --- integration: sweep curves and cross-validation verdicts --- *)

let small_spec =
  { Qdp_core.Registry.default_spec with Qdp_core.Registry.n = 16; r = 3; t = 3 }

let sweep_json ~jobs ~seed =
  with_jobs jobs (fun () ->
      let cfg =
        { (Qdp_faults.Sweep.default ~seed) with
          Qdp_faults.Sweep.trials = 30;
          grid = [ 0.; 0.25; 0.5 ];
          protocols = Some [ "eq"; "rpls" ];
          spec = { small_spec with Qdp_core.Registry.seed }
        }
      in
      Qdp_faults.Sweep.to_json (Qdp_faults.Sweep.run cfg))

let test_sweep_jobs_invariant () =
  Alcotest.(check string)
    "sweep JSON identical at jobs 1 and jobs 4"
    (sweep_json ~jobs:1 ~seed:42)
    (sweep_json ~jobs:4 ~seed:42)

let xval_verdicts ~jobs ~seed =
  with_jobs jobs (fun () ->
      let spec = { small_spec with Qdp_core.Registry.seed } in
      List.concat_map
        (fun id ->
          match Qdp_core.Registry.find id with
          | None -> Alcotest.failf "no registry entry %s" id
          | Some e -> (
              let st = Random.State.make [| seed; 5 |] in
              match
                Qdp_core.Registry.cross_validate_demo ~trials:400 ~st spec e
              with
              | None -> Alcotest.failf "%s has no network backend" id
              | Some per_instance ->
                  List.concat_map
                    (fun (inst, checks) ->
                      List.map
                        (fun c ->
                          Format.asprintf "%s: %a" inst Qdp_core.Dqma.pp_check
                            c)
                        checks)
                    per_instance))
        [ "eq"; "gt" ])

let test_xval_jobs_invariant () =
  Alcotest.(check (list string))
    "cross-validation verdicts identical at jobs 1 and jobs 4"
    (xval_verdicts ~jobs:1 ~seed:11)
    (xval_verdicts ~jobs:4 ~seed:11)

(* --- fingerprint memo hammered from 4 domains --- *)

let cache_counts () =
  let snap = Qdp_obs.Metrics.snapshot () in
  let get name =
    match Qdp_obs.Metrics.find snap name with
    | Some (Qdp_obs.Metrics.Counter_v v) -> v
    | _ -> 0
  in
  (get "fingerprint.cache.hits", get "fingerprint.cache.misses")

(* Runs [worker d] on 4 raw domains (bypassing the pool, so the cache
   sees genuinely concurrent find/add/evict traffic) and returns the
   growth of the (hits, misses) counters. *)
let hammer worker =
  Qdp_obs.with_enabled true (fun () ->
      let h0, m0 = cache_counts () in
      let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join domains;
      let h1, m1 = cache_counts () in
      (h1 - h0, m1 - m0))

let test_fingerprint_hammer () =
  with_jobs 1 (fun () ->
      let check_fp fp n =
        if Qdp_fingerprint.Fingerprint.input_bits fp <> n then
          failwith "bad fingerprint from concurrent cache"
      in
      (* 40 fresh keys, far below the 512-entry cap, each requested 3
         times by every domain in a domain-specific order: the losers
         of a race count as hits, so misses are exactly the distinct
         keys whatever the interleaving *)
      let keys = 40 and rounds = 3 in
      let hits, misses =
        hammer (fun d () ->
            for i = 0 to (rounds * keys) - 1 do
              let seed = 5000 + (((7 * i) + (11 * d)) mod keys) in
              check_fp (Qdp_fingerprint.Fingerprint.standard ~seed ~n:8) 8
            done)
      in
      Alcotest.(check int) "misses = distinct keys" keys misses;
      Alcotest.(check int) "hits = calls - misses"
        ((4 * rounds * keys) - keys)
        hits;
      (* key space (300 seeds x 3 sizes) exceeds the 512-entry cap, so
         the single-binding eviction path runs under contention too *)
      let hits, misses =
        hammer (fun d () ->
            for i = 0 to 399 do
              let seed = 1000 + (((7 * i) + d) mod 300) in
              let n = 8 + (4 * ((i + d) mod 3)) in
              let fp = Qdp_fingerprint.Fingerprint.standard ~seed ~n in
              let fp' = Qdp_fingerprint.Fingerprint.standard ~seed ~n in
              check_fp fp n;
              check_fp fp' n
            done)
      in
      Alcotest.(check int) "hits + misses = calls" (4 * 400 * 2)
        (hits + misses);
      let a = Qdp_fingerprint.Fingerprint.standard ~seed:1000 ~n:8 in
      let b = Qdp_fingerprint.Fingerprint.standard ~seed:1000 ~n:8 in
      Alcotest.(check bool) "cache still memoizes" true (a == b))

let () =
  Alcotest.run "par"
    [ ( "pool",
        [ Alcotest.test_case "map coverage" `Quick test_map_covers;
          Alcotest.test_case "map empty range" `Quick test_map_empty;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested regions" `Quick test_nested;
          Alcotest.test_case "jobs=1 is sequential" `Quick
            test_jobs_one_sequential;
          Alcotest.test_case "set_jobs validation" `Quick test_set_jobs_invalid
        ] );
      ( "determinism",
        [ Alcotest.test_case "monte_carlo_hits jobs-invariant" `Quick
            test_mc_jobs_invariant;
          QCheck_alcotest.to_alcotest qcheck_estimate_acceptance;
          Alcotest.test_case "sweep curves jobs-invariant" `Slow
            test_sweep_jobs_invariant;
          Alcotest.test_case "cross-validation jobs-invariant" `Slow
            test_xval_jobs_invariant
        ] );
      ( "shared-state",
        [ Alcotest.test_case "fingerprint cache, 4 domains" `Quick
            test_fingerprint_hammer
        ] )
    ]
