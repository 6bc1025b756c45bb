(* The fault-injection layer: injector mechanics, trajectory noise vs
   exact channels, recovery semantics, and the sweep's two invariants
   (soundness contractivity, monotone completeness decay) as
   properties. *)

open Qdp_linalg
open Qdp_quantum
open Qdp_network
open Qdp_core
open Qdp_faults

let () = Protocols.init ()

let small_spec =
  { Registry.default_spec with Registry.n = 16; r = 3; t = 3 }

let suite_of id =
  match Registry.find id with
  | None -> Alcotest.failf "no registry entry %s" id
  | Some e -> (
      match Registry.fault_suite small_spec e with
      | Some s -> s
      | None -> Alcotest.failf "%s has no fault suite" id)

(* --- injector mechanics --- *)

let mk_inj ?corrupt ~seed spec =
  Fault.make ?corrupt ~st:(Random.State.make [| seed |]) spec

let link l = { Fault.none with Fault.default_link = l }

let test_deliver_drop () =
  let inj = mk_inj ~seed:1 (link { Fault.perfect_link with drop = 1. }) in
  Alcotest.(check (list int)) "dropped" []
    (Fault.deliver inj ~round:1 ~src:0 ~dst:1 7);
  let c = Fault.counts inj in
  Alcotest.(check int) "dropped count" 1 c.Fault.dropped;
  Alcotest.(check int) "delivered count" 0 c.Fault.delivered;
  Alcotest.(check bool) "injected" true (Fault.total_injected c > 0)

let test_deliver_duplicate () =
  let inj = mk_inj ~seed:1 (link { Fault.perfect_link with duplicate = 1. }) in
  Alcotest.(check (list int)) "two copies" [ 7; 7 ]
    (Fault.deliver inj ~round:1 ~src:0 ~dst:1 7);
  let c = Fault.counts inj in
  Alcotest.(check int) "duplicated count" 1 c.Fault.duplicated;
  Alcotest.(check int) "delivered count" 2 c.Fault.delivered

let test_deliver_corrupt () =
  let corrupt _st m = m + 100 in
  let inj =
    mk_inj ~corrupt ~seed:1 (link { Fault.perfect_link with corrupt = 1. })
  in
  Alcotest.(check (list int)) "corrupted payload" [ 107 ]
    (Fault.deliver inj ~round:1 ~src:0 ~dst:1 7);
  Alcotest.(check int) "corrupted count" 1 (Fault.counts inj).Fault.corrupted

let test_deliver_omit_babble () =
  let corrupt _st m = m + 100 in
  let omit =
    mk_inj ~seed:1 { Fault.none with Fault.nodes = [ (0, Fault.Omit 1.) ] }
  in
  Alcotest.(check (list int)) "omitted at source" []
    (Fault.deliver omit ~round:1 ~src:0 ~dst:1 7);
  Alcotest.(check (list int)) "other sources unaffected" [ 7 ]
    (Fault.deliver omit ~round:1 ~src:2 ~dst:1 7);
  let babble =
    mk_inj ~corrupt ~seed:1
      { Fault.none with Fault.nodes = [ (0, Fault.Babble 1.) ] }
  in
  Alcotest.(check (list int)) "extra corrupted copy" [ 7; 107 ]
    (Fault.deliver babble ~round:1 ~src:0 ~dst:1 7);
  let c = Fault.counts babble in
  Alcotest.(check int) "babble duplicated" 1 c.Fault.duplicated;
  Alcotest.(check int) "babble corrupted" 1 c.Fault.corrupted

let test_perfect_plan_is_none () =
  Alcotest.(check bool) "none is none" true (Fault.is_none Fault.none);
  Alcotest.(check bool) "drop plan is not" false
    (Fault.is_none (link { Fault.perfect_link with drop = 0.5 }))

(* --- crash-stop through the runtime --- *)

let echo_program g =
  {
    Runtime.init = (fun _ -> 0);
    round =
      (fun ~round ~id heard ~inbox ->
        match round with
        | 1 -> (heard, List.map (fun v -> (v, ())) (Graph.neighbours g id))
        | _ -> (heard + List.length inbox, []));
    finish = (fun ~id:_ heard -> if heard > 0 then Runtime.Accept else Reject);
  }

let test_runtime_crash () =
  let g = Graph.path 3 in
  let spec =
    { Fault.none with
      Fault.nodes = [ (1, Fault.Crash { from_round = 1; prob = 1. }) ] }
  in
  let faults = mk_inj ~seed:3 spec in
  let verdicts, stats = Runtime.run ~faults g ~rounds:2 (echo_program g) in
  Alcotest.(check (list int)) "down list" [ 1 ] stats.Runtime.down;
  (* node 1 froze before sending: its neighbours heard one less *)
  Alcotest.(check bool) "crashed node rejects (heard nothing)" true
    (verdicts.(1) = Runtime.Reject);
  let c = Option.get stats.Runtime.faults in
  Alcotest.(check int) "crash counted" 1 c.Fault.crashed;
  Alcotest.(check bool) "inbox suppressed" true (c.Fault.suppressed > 0)

let test_stats_without_faults () =
  let g = Graph.path 3 in
  let _, stats = Runtime.run g ~rounds:2 (echo_program g) in
  Alcotest.(check (list int)) "no down nodes" [] stats.Runtime.down;
  Alcotest.(check bool) "no fault counts" true (stats.Runtime.faults = None)

(* --- recovery semantics --- *)

let test_execute_protocol_error () =
  let o =
    Plan.execute Plan.Reject_on_timeout (fun () ->
        raise (Runtime.Protocol_error { node = 2; round = 1; turn = 2; target = 9 }))
  in
  Alcotest.(check bool) "rejected" false o.Plan.accepted;
  Alcotest.(check int) "reported" 1 o.Plan.protocol_errors

let test_execute_retry_budget () =
  let calls = ref 0 in
  let suite = suite_of "rpls" in
  let case = List.hd suite.Registry.fs_yes in
  let proto_st = Random.State.make [| 11 |] in
  let env =
    Plan.env Plan.Drop ~strength:1. ~st:(Random.State.make [| 11; 1 |])
  in
  let o =
    Plan.execute (Plan.Retry 3) (fun () ->
        incr calls;
        case.Registry.fc_run proto_st env)
  in
  (* drop = 1 injects every time, so the whole budget is spent *)
  Alcotest.(check int) "budget exhausted" 4 !calls;
  Alcotest.(check int) "attempts recorded" 4 o.Plan.attempts;
  Alcotest.(check bool) "faults accumulated" true (o.Plan.injected > 0);
  let clean = Random.State.make [| 12 |] in
  let perfect = Fault_env.perfect ~st:(Random.State.make [| 12; 1 |]) in
  let o' =
    Plan.execute (Plan.Retry 3) (fun () ->
        case.Registry.fc_run clean perfect)
  in
  Alcotest.(check int) "clean run: single attempt" 1 o'.Plan.attempts;
  Alcotest.(check bool) "clean run accepts" true o'.Plan.accepted

(* --- Wilson intervals --- *)

let test_wilson () =
  let iv = Runtime.wilson ~hits:0 ~trials:100 () in
  Alcotest.(check (float 1e-9)) "zero hits lower" 0. iv.Runtime.lower;
  let iv = Runtime.wilson ~hits:100 ~trials:100 () in
  Alcotest.(check (float 1e-9)) "all hits upper" 1. iv.Runtime.upper;
  let iv = Runtime.wilson ~hits:50 ~trials:100 () in
  Alcotest.(check bool) "interval brackets the point" true
    (iv.Runtime.lower < iv.Runtime.point && iv.Runtime.point < iv.Runtime.upper);
  let narrow = Runtime.wilson ~z:1. ~hits:50 ~trials:100 () in
  Alcotest.(check bool) "smaller z is narrower" true
    (narrow.Runtime.upper -. narrow.Runtime.lower
    < iv.Runtime.upper -. iv.Runtime.lower);
  Alcotest.(check bool) "rejects bad input" true
    (try ignore (Runtime.wilson ~hits:5 ~trials:0 ()); false
     with Invalid_argument _ -> true)

(* --- trajectory noise vs the exact channel --- *)

let density samples st model psi =
  let dim = Vec.dim psi in
  let acc = ref (Mat.create dim dim) in
  for _ = 1 to samples do
    let out = Noise.apply model st psi in
    acc := Mat.add !acc (Mat.outer out out)
  done;
  Mat.scale (Cx.re (1. /. float_of_int samples)) !acc

let random_state st dim =
  Vec.normalize
    (Vec.init dim (fun _ ->
         Cx.make (Random.State.float st 2. -. 1.) (Random.State.float st 2. -. 1.)))

let test_noise_matches_channel () =
  let st = Random.State.make [| 0xace |] in
  let dim = 4 in
  let psi = random_state st dim in
  let rho = Mat.outer psi psi in
  let models =
    [
      Noise.depolarize 0.3;
      Noise.dephase 0.45;
      Noise.mix 0.5 (Noise.depolarize 0.6) (Noise.dephase 0.2);
      Noise.of_channel (Channel.dephase dim);
    ]
  in
  List.iter
    (fun model ->
      let ch = Noise.to_channel ~dim model in
      Alcotest.(check bool)
        (Noise.name model ^ " trace preserving")
        true
        (Channel.is_trace_preserving ch);
      let expected = Channel.apply ch rho in
      let sampled = density 12000 st model psi in
      let dist = Mat.frobenius_norm (Mat.sub expected sampled) in
      if dist > 0.06 then
        Alcotest.failf "%s trajectory average off by %.4f" (Noise.name model)
          dist)
    models

(* --- determinism --- *)

let tiny_sweep () =
  {
    (Sweep.default ~seed:7) with
    Sweep.trials = 30;
    grid = [ 0.; 0.25; 0.5 ];
    protocols = Some [ "rpls" ];
    kinds = Some [ Plan.Drop; Plan.Crash ];
    spec = { small_spec with Registry.seed = 7 };
  }

let test_sweep_deterministic () =
  let a = Sweep.to_json (Sweep.run (tiny_sweep ())) in
  let b = Sweep.to_json (Sweep.run (tiny_sweep ())) in
  Alcotest.(check string) "same seed, byte-identical JSON" a b

(* The unit of work is a case: a sweep prepares every case of every
   swept suite exactly once, and its JSON does not depend on how the
   (side, case) tasks are spread over domains. *)
let test_sweep_case_major () =
  let cfg =
    {
      (Sweep.default ~seed:11) with
      Sweep.trials = 5;
      grid = [ 0.; 0.4 ];
      protocols = Some [ "rpls"; "dma" ];
      spec = { small_spec with Registry.seed = 11 };
    }
  in
  let count () =
    match
      Qdp_obs.Metrics.find (Qdp_obs.Metrics.snapshot ()) "faults.cases_prepared"
    with
    | Some (Qdp_obs.Metrics.Counter_v v) -> v
    | _ -> 0
  in
  (* the sweep measures the first honest yes case and every no case *)
  let cases =
    List.fold_left
      (fun acc id ->
        let entry = Option.get (Registry.find id) in
        match Registry.fault_suite cfg.Sweep.spec entry with
        | Some s ->
            acc
            + min 1 (List.length s.Registry.fs_yes)
            + List.length s.Registry.fs_no
        | None -> Alcotest.failf "%s has no fault suite" id)
      0 [ "rpls"; "dma" ]
  in
  let jobs0 = Qdp_par.jobs () and over0 = Qdp_par.oversubscribe () in
  let obs0 = Qdp_obs.enabled () in
  Qdp_obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Qdp_par.set_jobs jobs0;
      Qdp_par.set_oversubscribe over0;
      Qdp_obs.set_enabled obs0)
  @@ fun () ->
  let sweep jobs =
    Qdp_par.set_oversubscribe true;
    Qdp_par.set_jobs jobs;
    let before = count () in
    let json = Sweep.to_json (Sweep.run cfg) in
    Alcotest.(check int)
      (Printf.sprintf "each case prepared once at jobs %d" jobs)
      cases (count () - before);
    json
  in
  let j1 = sweep 1 in
  let j4 = sweep 4 in
  Alcotest.(check string) "jobs 1 = jobs 4" j1 j4

let test_fault_plan_deterministic () =
  let suite = suite_of "rpls" in
  let case = List.hd suite.Registry.fs_no in
  let run () =
    let proto_st = Random.State.make [| 21 |] in
    let env =
      Plan.env Plan.Flip ~strength:0.4 ~st:(Random.State.make [| 21; 1 |])
    in
    case.Registry.fc_run proto_st env
  in
  let v1, s1 = run () in
  let v2, s2 = run () in
  Alcotest.(check bool) "verdicts identical" true (v1 = v2);
  Alcotest.(check bool) "stats identical" true (s1 = s2)

(* --- the sweep invariants as properties --- *)

(* Soundness contractivity (Fact 4): no fault kind at any strength may
   push a no-instance acceptance above the noiseless analytic bound
   (beyond the Wilson interval's statistical slack). *)
let prop_soundness_contractive =
  QCheck.Test.make ~name:"soundness never exceeds the noiseless bound"
    ~count:12
    QCheck.(pair (int_bound 1000) (int_range 0 5))
    (fun (p1000, kind_idx) ->
      let strength = float_of_int p1000 /. 1000. in
      let suite = suite_of "rpls" in
      let kind = List.nth (Plan.applicable ~quantum_links:false) kind_idx in
      let bound =
        List.fold_left
          (fun acc c -> Float.max acc c.Registry.fc_analytic)
          0. suite.Registry.fs_no
      in
      let trials = 80 in
      let proto_st = Random.State.make [| 31; p1000; kind_idx |] in
      let env =
        Plan.env kind ~strength
          ~st:(Random.State.make [| 31; p1000; kind_idx; 1 |])
      in
      let hits = ref 0 in
      List.iter
        (fun case ->
          let h = ref 0 in
          for _ = 1 to trials do
            let o =
              Plan.execute Plan.Reject_on_timeout (fun () ->
                  case.Registry.fc_run proto_st env)
            in
            if o.Plan.accepted then incr h
          done;
          hits := max !hits !h)
        suite.Registry.fs_no;
      let iv = Runtime.wilson ~hits:!hits ~trials () in
      iv.Runtime.lower <= bound +. 1e-9)

(* Crashing a node that has already said everything it will say must
   not change anyone's verdict under degraded recovery: EQ's left
   endpoint only acts in round 1, so a round-2 crash is neutral. *)
let prop_crash_of_leaf_neutral =
  QCheck.Test.make ~name:"round-2 crash of EQ's left endpoint is neutral"
    ~count:20 QCheck.small_nat (fun seed ->
      let suite = suite_of "eq" in
      List.for_all
        (fun (case : Registry.fault_case) ->
          let clean =
            case.Registry.fc_run
              (Random.State.make [| seed |])
              (Fault_env.perfect ~st:(Random.State.make [| seed; 1 |]))
          in
          let crash_spec =
            { Fault.none with
              Fault.nodes = [ (0, Fault.Crash { from_round = 2; prob = 1. }) ]
            }
          in
          let crashed =
            case.Registry.fc_run
              (Random.State.make [| seed |])
              (Fault_env.make ~st:(Random.State.make [| seed; 1 |]) crash_spec)
          in
          let v_clean, _ = clean and v_crash, stats = crashed in
          stats.Runtime.down = [ 0 ] && v_clean = v_crash)
        (suite.Registry.fs_yes @ suite.Registry.fs_no))

(* Exact binomial tails for X ~ Bin(n, p): [binomial_le] is
   P(X <= k) and [binomial_ge] is P(X >= k). *)
let binomial_pmf ~n ~p k =
  if p <= 0. then if k = 0 then 1. else 0.
  else if p >= 1. then if k = n then 1. else 0.
  else begin
    let log_choose = ref 0. in
    for i = 1 to k do
      log_choose :=
        !log_choose +. log (float_of_int (n - k + i)) -. log (float_of_int i)
    done;
    exp
      (!log_choose
      +. (float_of_int k *. log p)
      +. (float_of_int (n - k) *. Float.log1p (-.p)))
  end

let binomial_sum ~n ~p lo hi =
  let acc = ref 0. in
  for k = lo to hi do
    acc := !acc +. binomial_pmf ~n ~p k
  done;
  !acc

let binomial_le ~n ~p k = binomial_sum ~n ~p 0 k
let binomial_ge ~n ~p k = binomial_sum ~n ~p k n

(* The two-sided tail of z = 5, the level every sampled check here
   uses. *)
let z5_level = Float.erfc (5. /. Float.sqrt 2.)

(* [p] lies in the exact (Clopper-Pearson) interval of [hits] out of
   [trials] at two-sided level [z5_level]: neither tail at [p] is
   rarer than half the level. *)
let clopper_pearson_covers ~hits ~trials p =
  binomial_le ~n:trials ~p hits >= z5_level /. 2.
  && binomial_ge ~n:trials ~p hits >= z5_level /. 2.

(* Completeness under crash noise decays linearly with the crash
   probability: the plan crashes one victim node with probability p,
   and under strict recovery a run accepts exactly when nothing was
   injected, so the accept count is Bin(trials, 1 - p).  The count is
   checked against 1 - p with the exact binomial interval: at small p
   the normal-approximation (Wilson) interval covers far less than
   its nominal level. *)
let prop_crash_completeness_tracks_prob =
  QCheck.Test.make ~name:"crash completeness tracks 1 - p" ~count:6
    (QCheck.int_bound 800) (fun p1000 ->
      let strength = float_of_int p1000 /. 1000. in
      let suite = suite_of "dma" in
      let case = List.hd suite.Registry.fs_yes in
      let trials = 150 in
      let proto_st = Random.State.make [| 41; p1000 |] in
      let env =
        Plan.env Plan.Crash ~strength
          ~st:(Random.State.make [| 41; p1000; 1 |])
      in
      let run = case.Registry.fc_prepare () in
      let hits = ref 0 and accounted = ref true in
      for _ = 1 to trials do
        let o =
          Plan.execute Plan.Reject_on_timeout (fun () -> run proto_st env)
        in
        if o.Plan.accepted <> (o.Plan.injected = 0) then accounted := false;
        if o.Plan.accepted then incr hits
      done;
      !accounted
      && clopper_pearson_covers ~hits:!hits ~trials (1. -. strength))

(* --- the staging contract --- *)

(* Every case of every fault suite, prepared once and run [k] times,
   must match a fresh preparation per trial — verdicts and stats,
   fault tallies included — from identically seeded protocol and
   fault streams, and leave both streams at the same position. *)
let test_prepared_once kind () =
  let k = 50 in
  let outcome run st env =
    match run st env with
    | r -> Ok r
    | exception Runtime.Protocol_error _ -> Error ()
  in
  let cases = ref 0 in
  List.iter
    (fun entry ->
      match Registry.fault_suite small_spec entry with
      | None -> ()
      | Some suite ->
          List.iteri
            (fun ci (case : Registry.fault_case) ->
              incr cases;
              let streams () =
                let fault_st = Random.State.make [| 51; ci; 1 |] in
                ( Random.State.make [| 51; ci |],
                  fault_st,
                  Plan.env kind ~strength:0.3 ~st:fault_st )
              in
              let st1, fst1, env1 = streams () in
              let st2, fst2, env2 = streams () in
              let run = case.Registry.fc_prepare () in
              let once = Array.init k (fun _ -> outcome run st1 env1) in
              let each =
                Array.init k (fun _ ->
                    outcome (case.Registry.fc_prepare ()) st2 env2)
              in
              let label =
                Printf.sprintf "%s %s under %s" suite.Registry.fs_id
                  case.Registry.fc_strategy (Plan.name kind)
              in
              Alcotest.(check bool) (label ^ ": same runs") true (once = each);
              Alcotest.(check (pair int int))
                (label ^ ": same stream positions")
                (Random.State.bits st2, Random.State.bits fst2)
                (Random.State.bits st1, Random.State.bits fst1))
            (suite.Registry.fs_yes @ suite.Registry.fs_no))
    (Registry.all ());
  Alcotest.(check bool) "some cases covered" true (!cases > 0)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "faults"
    [
      ( "injector",
        [
          Alcotest.test_case "drop" `Quick test_deliver_drop;
          Alcotest.test_case "duplicate" `Quick test_deliver_duplicate;
          Alcotest.test_case "corrupt" `Quick test_deliver_corrupt;
          Alcotest.test_case "omit and babble" `Quick test_deliver_omit_babble;
          Alcotest.test_case "empty plan" `Quick test_perfect_plan_is_none;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "crash-stop" `Quick test_runtime_crash;
          Alcotest.test_case "fault-free stats" `Quick
            test_stats_without_faults;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "protocol error reported" `Quick
            test_execute_protocol_error;
          Alcotest.test_case "retry budget" `Quick test_execute_retry_budget;
        ] );
      ("wilson", [ Alcotest.test_case "interval sanity" `Quick test_wilson ]);
      ( "noise",
        [
          Alcotest.test_case "trajectories average to the channel" `Slow
            test_noise_matches_channel;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sweep JSON byte-identical" `Quick
            test_sweep_deterministic;
          Alcotest.test_case "faulty run reproducible" `Quick
            test_fault_plan_deterministic;
          Alcotest.test_case "case-major sweep" `Quick test_sweep_case_major;
        ] );
      ( "invariants",
        qcheck
          [
            prop_soundness_contractive;
            prop_crash_of_leaf_neutral;
            prop_crash_completeness_tracks_prob;
          ] );
      ( "staging",
        [
          Alcotest.test_case "prepared once under drop" `Quick
            (test_prepared_once Plan.Drop);
          Alcotest.test_case "prepared once under depolarize" `Quick
            (test_prepared_once Plan.Depolarize);
        ] );
    ]
