(* Tests for the turn-based runtime refactor: the one-shot [run] must
   be observationally the 1-turn special case of [run_turns], the
   registry's demo instances must behave deterministically through the
   new engine, transcripts must be reproducible from the seed, and the
   turn-reduction experiment must be byte-identical across job
   counts. *)

open Qdp_network
open Qdp_core

let () = Protocols.init ()

(* The jobs 1 vs 4 byte-identity check must really take the parallel
   path, even on a 1-core host. *)
let () = Qdp_par.set_oversubscribe true

(* --- a small parameterized node program for differential runs --- *)

(* Gossip-sum: every node starts with [weight * id], forwards its
   running sum each round, and accepts iff the final sum has the given
   parity.  Payloads are ints, so fault corruption (+1 by default
   [Fault.make]... actually test corruption flips parity) perturbs
   verdicts — good observational surface. *)
type gossip = { mutable acc : int }

let gossip_program ~weight ~rounds:_ g =
  {
    Runtime.init = (fun id -> { acc = weight * (id + 1) });
    round =
      (fun ~round ~id state ~inbox ->
        List.iter (fun (_, v) -> state.acc <- state.acc + v) inbox;
        ( state,
          List.map (fun v -> (v, state.acc + round)) (Graph.neighbours g id) ));
    finish = (fun ~id:_ state -> if state.acc land 1 = 0 then Accept else Reject);
  }

(* The same program expressed directly against the turn engine, the
   way [Runtime.run] wraps it internally. *)
let as_turn_program (p : ('s, 'm) Runtime.program) =
  {
    Runtime.tp_init = p.Runtime.init;
    tp_deliver = (fun ~turn:_ ~id:_ s _ -> s);
    tp_round =
      (fun ~turn:_ ~round ~coin:_ ~id s ~inbox -> p.Runtime.round ~round ~id s ~inbox);
    tp_finish = (fun ~transcript:_ ~id s -> p.Runtime.finish ~id s);
  }

let fault_spec strength turn =
  {
    Fault.none with
    default_link = { Fault.drop = strength; duplicate = strength /. 2.; corrupt = strength };
    turn;
  }

let counts_tuple = function
  | None -> (-1, -1, -1, -1, -1, -1)
  | Some c ->
      Fault.
        (c.delivered, c.dropped, c.duplicated, c.corrupted, c.suppressed,
         c.crashed)

let stats_tuple (s : Runtime.stats) =
  (s.Runtime.messages, s.rounds_run, s.per_edge, s.down, counts_tuple s.faults)

(* one_shot through [run] vs an explicit 1-turn schedule through
   [run_turns]: verdicts and every shared stats field must coincide,
   with and without faults. *)
let prop_one_shot_equivalence =
  QCheck.Test.make ~name:"run is the 1-turn special case of run_turns"
    ~count:100 QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed; 0x715 |] in
      let n = 3 + Random.State.int st 8 in
      let g =
        match seed mod 3 with
        | 0 -> Graph.path (n - 1)
        | 1 -> Graph.cycle n
        | _ -> Graph.random_connected st ~n ~extra_edges:(seed mod 4)
      in
      let rounds = 1 + (seed mod 4) in
      let weight = 1 + (seed mod 5) in
      let faults () =
        if seed mod 2 = 0 then None
        else
          Some
            (fun () ->
              Fault.make
                ~st:(Random.State.make [| seed; 0xfa17 |])
                (fault_spec 0.2 None))
      in
      let run_legacy () =
        let program = gossip_program ~weight ~rounds g in
        match faults () with
        | None -> Runtime.run g ~rounds program
        | Some mk -> Runtime.run ~faults:(mk ()) g ~rounds program
      in
      let run_explicit () =
        let program = as_turn_program (gossip_program ~weight ~rounds g) in
        let go ?faults () =
          Runtime.run_turns ?faults g
            ~schedule:(Runtime.Turn.one_shot ~rounds)
            ~prover:(fun ~turn:_ _ -> [])
            program
        in
        let v, s, _ =
          match faults () with None -> go () | Some mk -> go ~faults:(mk ()) ()
        in
        (v, s)
      in
      let v1, s1 = run_legacy () in
      let v2, s2 = run_explicit () in
      v1 = v2 && stats_tuple s1 = stats_tuple s2)

(* Delivery-time faults aimed at turn 1 (the empty prover turn) or at
   a turn past the schedule must be inert on one-shot protocols;
   aimed at turn 2 they must reproduce the untargeted run exactly. *)
let prop_turn_targeting_on_one_shot =
  QCheck.Test.make ~name:"turn-targeted faults on the one-shot schedule"
    ~count:60 QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed; 0x9e2 |] in
      let n = 4 + Random.State.int st 6 in
      let g = Graph.cycle n in
      let rounds = 2 in
      let run turn =
        let inj =
          Fault.make ~st:(Random.State.make [| seed; 0x1ce |]) (fault_spec 0.3 turn)
        in
        Runtime.run ~faults:inj g ~rounds (gossip_program ~weight:3 ~rounds g)
      in
      let clean = Runtime.run g ~rounds (gossip_program ~weight:3 ~rounds g) in
      let v_none, s_none = run None in
      let v_two, s_two = run (Some 2) in
      let v_one, s_one = run (Some 1) in
      let v_far, s_far = run (Some 9) in
      v_one = fst clean
      && s_one.Runtime.messages = (snd clean).Runtime.messages
      && v_far = fst clean
      && s_far.Runtime.messages = (snd clean).Runtime.messages
      && v_two = v_none
      && stats_tuple s_two = stats_tuple s_none)

(* --- registry demo instances through the new engine --- *)

(* Every network-realized entry must be a deterministic function of
   the RNG seed: the whole demo cross-validation (which samples the
   network backend of every strategy) must reproduce byte-for-byte
   from an equal seed.  This is the regression harness for "all
   existing protocols pass through the turn engine unchanged". *)
let test_registry_network_deterministic () =
  let spec = { Registry.default_spec with Registry.n = 16; r = 3; t = 3 } in
  let snapshot () =
    List.concat_map
      (fun entry ->
        match
          Registry.cross_validate_demo ~trials:25
            ~st:(Random.State.make [| 0x5eed |])
            spec entry
        with
        | None -> []
        | Some sides ->
            List.concat_map
              (fun (side, checks) ->
                List.map
                  (fun c ->
                    ( (Registry.info entry).Registry.info_id,
                      side,
                      c.Dqma.check_strategy,
                      c.Dqma.sampled ))
                  checks)
              sides)
      (Registry.all ())
  in
  let a = snapshot () and b = snapshot () in
  Alcotest.(check int) "same number of checks" (List.length a) (List.length b);
  List.iter2
    (fun (id, side, strat, s1) (_, _, _, s2) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s %s %s reproducible" id side strat)
        s1 s2)
    a b

let test_ieq_demo_spec () =
  List.iter
    (fun id ->
      match Registry.find id with
      | None -> Alcotest.failf "registry entry %s missing" id
      | Some entry ->
          let _, yes, no, _ =
            Registry.evaluate_demo Registry.default_spec entry
          in
          Alcotest.(check bool) (id ^ " yes meets spec") true yes.Dqma.meets_spec;
          Alcotest.(check bool) (id ^ " no meets spec") true no.Dqma.meets_spec;
          let info = Registry.info entry in
          Alcotest.(check bool)
            (id ^ " is interactive iff ieq3/ieq2")
            (List.mem id [ "ieq3"; "ieq2" ])
            (info.Registry.info_turns > 1))
    [ "ieq3"; "ieq2"; "ieq1" ]

(* Differential cross-validation of the interactive entries at a
   small spec: analytic coin enumeration vs the sampled turn engine. *)
let test_ieq_cross_validate () =
  let spec = { Registry.default_spec with Registry.n = 12; r = 3 } in
  List.iter
    (fun id ->
      match Registry.find id with
      | None -> Alcotest.failf "registry entry %s missing" id
      | Some entry -> (
          match
            Registry.cross_validate_demo ~trials:300
              ~st:(Random.State.make [| 0xb11 |])
              spec entry
          with
          | None -> Alcotest.failf "%s has no network backend" id
          | Some sides ->
              List.iter
                (fun (side, checks) ->
                  List.iter
                    (fun c ->
                      if not c.Dqma.agree then
                        Alcotest.failf "%s %s %s: analytic %.6f vs sampled %.6f"
                          id side c.Dqma.check_strategy c.Dqma.analytic
                          c.Dqma.sampled)
                    checks)
                sides))
    [ "ieq3"; "ieq2"; "ieq1" ]

(* --- schedules and transcripts --- *)

let test_message_turns () =
  let open Runtime.Turn in
  Alcotest.(check int) "one_shot is 1 turn" 1 (message_turns (one_shot ~rounds:4));
  List.iter
    (fun turns ->
      let p = { Ieq.n = 16; r = 3; turns; repetitions = 1 } in
      let q = Ieq.field p in
      Alcotest.(check int)
        (Printf.sprintf "ieq%d schedule has %d message turns" turns turns)
        turns
        (message_turns (Runtime_ieq.schedule p ~q)))
    [ 3; 2; 1 ]

let transcript_of seed =
  let p = { Ieq.n = 16; r = 4; turns = 3; repetitions = 1 } in
  let q = Ieq.field p in
  let g = Graph.path p.Ieq.r in
  let echo =
    {
      Runtime.tp_init = (fun _ -> ());
      tp_deliver = (fun ~turn:_ ~id:_ () _ -> ());
      tp_round = (fun ~turn:_ ~round:_ ~coin:_ ~id:_ () ~inbox:_ -> ((), []));
      tp_finish = (fun ~transcript:_ ~id:_ () -> Runtime.Accept);
    }
  in
  let _, _, tr =
    Runtime.run_turns ~st:(Random.State.make [| seed; 0x7c1 |]) g
      ~schedule:(Runtime_ieq.schedule p ~q)
      ~prover:(fun ~turn transcript ->
        (* the prover replays what it can see: its turn number plus
           the first coin revealed so far *)
        let seen =
          match Runtime.Transcript.coins transcript ~turn:2 with
          | [||] -> -1
          | coins -> coins.(0)
        in
        List.init (p.Ieq.r + 1) (fun i -> (i, (turn * 1000) + seen)))
      echo
  in
  tr

let test_transcript_determinism () =
  let a = transcript_of 5 and b = transcript_of 5 and c = transcript_of 6 in
  Alcotest.(check bool)
    "same seed, same transcript" true
    (Runtime.Transcript.entries a = Runtime.Transcript.entries b);
  Alcotest.(check bool)
    "different seed, different coins" false
    (Runtime.Transcript.coins a ~turn:2 = Runtime.Transcript.coins c ~turn:2);
  (* the schedule shape is recorded entry-for-entry *)
  Alcotest.(check int) "one entry per schedule entry" 4
    (List.length (Runtime.Transcript.entries a));
  Alcotest.(check bool) "deterministic verifier turn records no coins" true
    (Runtime.Transcript.coins a ~turn:4 = [||]);
  (* prover writes recorded as delivered, in write order *)
  Alcotest.(check int) "commit turn carries r+1 writes" 5
    (List.length (Runtime.Transcript.prover_messages a ~turn:1))

(* --- the turn-reduction experiment --- *)

let test_turns_experiment_jobs_identical () =
  let saved = Qdp_par.jobs () in
  Fun.protect ~finally:(fun () -> Qdp_par.set_jobs saved) @@ fun () ->
  let run jobs =
    Qdp_par.set_jobs jobs;
    Turns_exp.to_json (Turns_exp.run ~seed:3 ~n:16 ~r:3 ~trials:200 ())
  in
  let j1 = run 1 and j4 = run 4 in
  Alcotest.(check string) "BENCH_turns.json byte-identical at jobs 1 vs 4" j1 j4

let test_turns_experiment_shape () =
  let t = Turns_exp.run ~seed:3 ~n:16 ~r:3 ~trials:120 () in
  let turns = List.map (fun w -> w.Turns_exp.tr_turns) t.Turns_exp.tx_rows in
  Alcotest.(check (list int)) "variants in 3/2/1 order" [ 3; 2; 1 ] turns;
  List.iter
    (fun w ->
      Alcotest.(check (float 1e-9)) "perfect completeness (analytic)" 1.
        w.Turns_exp.tr_honest_analytic;
      Alcotest.(check bool) "attack below the analytic bound" true
        (w.Turns_exp.tr_attack_analytic <= w.Turns_exp.tr_bound +. 1e-9))
    t.Turns_exp.tx_rows;
  (* the turn-reduction tradeoff: fewer turns, bigger certificates *)
  match t.Turns_exp.tx_rows with
  | [ three; _; one ] ->
      Alcotest.(check bool) "1-turn certificate is the blowup" true
        (one.Turns_exp.tr_cert_bits > 10 * three.Turns_exp.tr_cert_bits)
  | _ -> Alcotest.fail "expected three variants"

(* The wall-clock deadline: a program whose rounds sleep must abort
   with [Deadline_exceeded] under a tight limit, run to completion
   when the check is disabled, and pick up the configured default
   when no [~deadline] is passed. *)
let test_deadline () =
  let g = Graph.path 2 in
  let slow =
    {
      Runtime.tp_init = (fun _ -> ());
      tp_deliver = (fun ~turn:_ ~id:_ () _ -> ());
      tp_round =
        (fun ~turn:_ ~round:_ ~coin:_ ~id:_ () ~inbox:_ ->
          Unix.sleepf 0.005;
          ((), []));
      tp_finish = (fun ~transcript:_ ~id:_ () -> Runtime.Accept);
    }
  in
  let run ?deadline () =
    Runtime.run_turns ?deadline g
      ~schedule:(Runtime.Turn.one_shot ~rounds:3)
      ~prover:(fun ~turn:_ _ -> [])
      slow
  in
  (match run ~deadline:0.01 () with
  | _ -> Alcotest.fail "expected Deadline_exceeded"
  | exception Runtime.Deadline_exceeded { elapsed_s; limit_s } ->
      Alcotest.(check (float 0.)) "limit echoed" 0.01 limit_s;
      Alcotest.(check bool) "elapsed past limit" true (elapsed_s > limit_s));
  (match run ~deadline:0. () with
  | vs, _, _ ->
      Alcotest.(check bool) "deadline 0 disables the check" true
        (Array.for_all (fun v -> v = Runtime.Accept) vs)
  | exception Runtime.Deadline_exceeded _ ->
      Alcotest.fail "deadline 0 must disable the check");
  let saved = Runtime.deadline () in
  Fun.protect
    ~finally:(fun () -> Runtime.set_deadline saved)
    (fun () ->
      Runtime.set_deadline 0.01;
      match run () with
      | _ -> Alcotest.fail "expected Deadline_exceeded from default"
      | exception Runtime.Deadline_exceeded _ -> ())

(* Regression test for the NTP-step bug: the deadline must be driven
   by [Qdp_obs.Clock.now] (swappable, monotonically clamped), not raw
   [Unix.gettimeofday].  A fake clock steps backwards mid-run — with
   the raw clock that would make elapsed time negative and silence the
   deadline — then jumps far past the limit without any real time
   passing.  The run must still raise, with the elapsed time taken
   from the clamped fake clock. *)
let test_deadline_stepped_clock () =
  let t = ref 1000. in
  Qdp_obs.Clock.set_source (Some (fun () -> !t));
  Fun.protect ~finally:(fun () -> Qdp_obs.Clock.set_source None)
  @@ fun () ->
  let g = Graph.path 2 in
  (* round 0: NTP-style backwards step; round 1: modest forward tick;
     round 2: jump far past the 50 s limit *)
  let steps = [| 900.; 1002.; 1100. |] in
  let stepping =
    {
      Runtime.tp_init = (fun _ -> ());
      tp_deliver = (fun ~turn:_ ~id:_ () _ -> ());
      tp_round =
        (fun ~turn:_ ~round ~coin:_ ~id () ~inbox:_ ->
          if id = 0 && round < Array.length steps then t := steps.(round);
          ((), []));
      tp_finish = (fun ~transcript:_ ~id:_ () -> Runtime.Accept);
    }
  in
  match
    Runtime.run_turns ~deadline:50. g
      ~schedule:(Runtime.Turn.one_shot ~rounds:10)
      ~prover:(fun ~turn:_ _ -> [])
      stepping
  with
  | _ -> Alcotest.fail "expected Deadline_exceeded from the fake clock"
  | exception Runtime.Deadline_exceeded { elapsed_s; limit_s } ->
      Alcotest.(check (float 0.)) "limit echoed" 50. limit_s;
      Alcotest.(check bool) "elapsed never negative" true (elapsed_s >= 0.);
      Alcotest.(check (float 0.))
        "elapsed read off the clamped fake clock" 100. elapsed_s

(* NaN fails every comparison, so a NaN deadline would read as
   "disabled" at the [limit > 0.] test: the setter refuses it and
   leaves the configured deadline as it was. *)
let test_deadline_nan () =
  let saved = Runtime.deadline () in
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Runtime.set_deadline: NaN") (fun () ->
      Runtime.set_deadline Float.nan);
  Alcotest.(check (float 0.)) "deadline unchanged" saved (Runtime.deadline ())

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "turns"
    [
      ( "engine",
        qcheck [ prop_one_shot_equivalence; prop_turn_targeting_on_one_shot ] );
      ( "registry",
        [
          Alcotest.test_case "network backends reproducible" `Slow
            test_registry_network_deterministic;
          Alcotest.test_case "interactive demos meet spec" `Quick
            test_ieq_demo_spec;
          Alcotest.test_case "interactive cross-validation" `Slow
            test_ieq_cross_validate;
        ] );
      ( "transcripts",
        [
          Alcotest.test_case "message turns" `Quick test_message_turns;
          Alcotest.test_case "determinism" `Quick test_transcript_determinism;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "wall-clock limit" `Quick test_deadline;
          Alcotest.test_case "stepped fake clock" `Quick
            test_deadline_stepped_clock;
          Alcotest.test_case "NaN rejected" `Quick test_deadline_nan;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "jobs byte-identity" `Slow
            test_turns_experiment_jobs_identical;
          Alcotest.test_case "shape" `Quick test_turns_experiment_shape;
        ] );
    ]
