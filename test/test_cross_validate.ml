(* Differential cross-validation: the analytic (transfer-DP) engine
   and the message-passing runtime must tell the same story on every
   registered protocol that has both backends.  Deterministic verdicts
   must reproduce exactly (tolerance 1e-6); genuinely probabilistic
   acceptances must land within the harness's statistical tolerance of
   the sampled frequency. *)

open Qdp_core

let () = Protocols.init ()

let small_spec =
  { Registry.default_spec with seed = 5; n = 12; r = 3; t = 3 }

let entry id =
  match Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "protocol %S not registered" id

(* Run the harness on one entry's demo instances and hand every check
   to [k]. *)
let checks_of ?(trials = 300) ?(spec = small_spec) id =
  let st = Random.State.make [| 0xc5; Hashtbl.hash id |] in
  match Registry.cross_validate_demo ~trials ~st spec (entry id) with
  | None -> Alcotest.failf "protocol %S has no network backend" id
  | Some results -> results

let test_agreement id () =
  List.iter
    (fun (label, checks) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s has checks" id label)
        true (checks <> []);
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s %s: analytic %.6f vs sampled %.6f (tol %.4f)"
               id label c.Dqma.check_strategy c.Dqma.analytic c.Dqma.sampled
               c.Dqma.tolerance)
            true c.Dqma.agree)
        checks)
    (checks_of id)

(* The honest prover on the yes instance is a deterministic accept for
   every backed protocol here, so the harness must apply the exact
   (1e-6) tolerance and the sampled frequency must be exactly 1. *)
let test_deterministic_tolerance () =
  List.iter
    (fun id ->
      let yes_checks = List.assoc "yes" (checks_of id) in
      match
        List.find_opt (fun c -> c.Dqma.check_strategy = "honest") yes_checks
      with
      | None -> Alcotest.failf "%s: no honest check on the yes instance" id
      | Some c ->
          Alcotest.(check (float 1e-9)) (id ^ " honest analytic") 1. c.Dqma.analytic;
          Alcotest.(check (float 1e-9)) (id ^ " honest sampled") 1. c.Dqma.sampled;
          Alcotest.(check bool)
            (id ^ " deterministic tolerance")
            true
            (c.Dqma.tolerance <= 1e-6))
    [ "eq"; "eqt"; "gt"; "dma" ]

(* Attack strategies must actually be compared: the no instance of EQ
   has four attacks, none of which is deterministic, so the harness
   must fall back to the statistical tolerance. *)
let test_statistical_tolerance () =
  let no_checks = List.assoc "no" (checks_of "eq") in
  Alcotest.(check int) "four attacks" 4 (List.length no_checks);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Dqma.check_strategy ^ " uses statistical tolerance")
        true
        (c.Dqma.tolerance > 1e-3))
    no_checks

(* The harness counts its work in the observability layer. *)
let test_obs_counters () =
  Qdp_obs.with_enabled true (fun () ->
      Qdp_obs.Metrics.reset ();
      ignore (checks_of ~trials:20 "eq");
      let snap = Qdp_obs.Metrics.snapshot () in
      let counter name =
        match List.assoc_opt name snap with
        | Some (Qdp_obs.Metrics.Counter_v n) -> n
        | _ -> 0
      in
      (* yes: honest + 4 attacks; no: 4 attacks *)
      Alcotest.(check int) "checks counted" 9 (counter "crossval.checks");
      Alcotest.(check int) "runs counted" (9 * 20)
        (counter "crossval.network_runs");
      Alcotest.(check int) "no disagreements" 0
        (counter "crossval.disagreements"));
  Qdp_obs.Metrics.reset ()

(* Entries without a runtime realization must say so rather than lie. *)
let test_no_network_backends () =
  List.iter
    (fun id ->
      let st = Random.State.make [| 1 |] in
      match Registry.cross_validate_demo ~st small_spec (entry id) with
      | None -> ()
      | Some _ -> Alcotest.failf "%s unexpectedly has a network backend" id)
    [ "relay"; "dqcma"; "seteq"; "rv"; "ham" ]

(* The staging contract: on every demo instance and strategy, a
   network closure prepared once and reused for [k] trials gives the
   same verdicts as a fresh preparation per trial from the same coins,
   and leaves the coin stream at the same position. *)
let test_prepared_once (Registry.Entry e) () =
  let k = 50 in
  match e.network with
  | None -> ()
  | Some mk ->
      let spec = e.demo_fix small_spec in
      let p = e.protocol spec in
      let network = mk spec in
      let yes, no = e.demo (Registry.context_of spec) in
      List.iter
        (fun (label, inst) ->
          let provers =
            (match p.Dqma.honest inst with
            | Some h -> [ ("honest", h) ]
            | None -> [])
            @ p.Dqma.attacks inst
          in
          List.iteri
            (fun i (name, prover) ->
              let reused = Random.State.make [| 0x57a9; i |] in
              let fresh = Random.State.make [| 0x57a9; i |] in
              let run = network inst prover in
              let once = Array.init k (fun _ -> run reused) in
              let each = Array.init k (fun _ -> network inst prover fresh) in
              let what =
                Printf.sprintf "%s/%s %s" e.meta.Registry.id label name
              in
              Alcotest.(check (array bool)) (what ^ ": verdicts") each once;
              Alcotest.(check int)
                (what ^ ": coin stream position")
                (Random.State.bits fresh) (Random.State.bits reused))
            provers)
        [ ("yes", yes); ("no", no) ]

let staging_cases =
  List.filter_map
    (fun entry ->
      let info = Registry.info entry in
      if info.Registry.info_network then
        Some
          (Alcotest.test_case info.Registry.info_id `Quick
             (test_prepared_once entry))
      else None)
    (Registry.all ())

let () =
  Alcotest.run "cross_validate"
    [
      ( "agreement",
        [
          Alcotest.test_case "EQ path" `Quick (test_agreement "eq");
          Alcotest.test_case "EQ tree" `Quick (test_agreement "eqt");
          Alcotest.test_case "GT" `Quick (test_agreement "gt");
          Alcotest.test_case "dMA" `Quick (test_agreement "dma");
          Alcotest.test_case "RPLS" `Quick (test_agreement "rpls");
        ] );
      ( "tolerances",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic_tolerance;
          Alcotest.test_case "statistical" `Quick test_statistical_tolerance;
        ] );
      ( "harness",
        [
          Alcotest.test_case "obs counters" `Quick test_obs_counters;
          Alcotest.test_case "no-network entries" `Quick test_no_network_backends;
        ] );
      ("prepared once", staging_cases);
    ]
