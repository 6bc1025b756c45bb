(* Differential cross-validation: the analytic (transfer-DP) engine
   and the message-passing runtime must tell the same story on every
   registered protocol that has both backends.  Deterministic verdicts
   must reproduce exactly (tolerance 1e-6); genuinely probabilistic
   acceptances must land within the harness's statistical tolerance of
   the sampled frequency. *)

open Qdp_network
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

(* A prepared run of an entry's backend. *)
type prepared =
  ?faults:Fault_env.t ->
  Random.State.t ->
  Runtime.verdict array * Runtime.stats

(* An iteration over (instance, strategy) pairs, handing its
   callback a label, the strategy's index and a thunk preparing the
   pair. *)
type strategies = (string -> int -> (unit -> prepared) -> unit) -> unit

(* Hands [f] every (instance, strategy) pair of [p] on the [yes] and
   [no] instances, as a label, the strategy's index and a thunk
   preparing the pair with [backend]. *)
let iter_strategies id (p : ('i, 'p) Dqma.protocol)
    (backend : 'i -> 'p -> prepared) (yes, no)
    (f : string -> int -> (unit -> prepared) -> unit) =
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
          f
            (Printf.sprintf "%s/%s %s" id label name)
            i
            (fun () -> backend inst prover))
        provers)
    [ ("yes", yes); ("no", no) ]

(* Every demo (instance, strategy) pair of an entry with a backend, at
   [small_spec]. *)
let iter_demo_strategies (Registry.Entry e) f =
  match e.backend with
  | None -> ()
  | Some mk ->
      let spec = e.demo_fix small_spec in
      iter_strategies e.meta.Registry.id (e.protocol spec) (mk spec)
        (e.demo (Registry.context_of spec))
        f

(* The same for the EQ tree run as the FGNP21 ablation (a SWAP test
   against one random child instead of the permutation test), which no
   registry entry exposes: the [eqt] demo instances and strategies
   with [use_permutation_test = false]. *)
let iter_fgnp21_strategies f =
  let (Registry.Entry e) = entry "eqt" in
  let spec = e.demo_fix small_spec in
  let params =
    Eq_tree.make ?repetitions:spec.repetitions ~use_permutation_test:false
      ~seed:spec.seed ~n:spec.n ~r:spec.r ()
  in
  let ctx = Registry.context_of spec in
  let graph, terminals = Registry.topology_graph spec.topology ~t:spec.t in
  let mk inputs = { Dqma.graph; terminals; inputs } in
  iter_strategies "eqt-fgnp21" (Dqma.eq_tree params)
    (fun mi strategy ->
      Runtime_tree.prepare params mi.Dqma.graph ~terminals:mi.Dqma.terminals
        ~inputs:mi.Dqma.inputs strategy)
    ( mk (Array.make spec.t ctx.x),
      mk (Array.init spec.t (fun i -> if i = spec.t - 1 then ctx.y else ctx.x))
    )
    f

(* The staging contract: on every demo instance and strategy, a
   backend closure prepared once and reused for [k] trials gives the
   same verdicts as a fresh preparation per trial from the same coins,
   and leaves the coin stream at the same position. *)
let test_prepared_once entry () =
  let k = 50 in
  iter_demo_strategies entry @@ fun what i prepare ->
  let reused = Random.State.make [| 0x57a9; i |] in
  let fresh = Random.State.make [| 0x57a9; i |] in
  let run = prepare () in
  let once = Array.init k (fun _ -> fst (Runtime.accepted (run reused))) in
  let each =
    Array.init k (fun _ -> fst (Runtime.accepted (prepare () fresh)))
  in
  Alcotest.(check (array bool)) (what ^ ": verdicts") each once;
  Alcotest.(check int)
    (what ^ ": coin stream position")
    (Random.State.bits fresh) (Random.State.bits reused)

(* The cross-validation view and the fault view of a backend are one
   run: from identically seeded states, a run under
   [Fault_env.perfect] has the same global verdict and traffic as a
   run with no [?faults], and leaves the coin stream at the same
   position. *)
let test_perfect_faults_view entry () =
  let k = 50 in
  iter_demo_strategies entry @@ fun what i prepare ->
  let plain_run = prepare () and faulted_run = prepare () in
  let plain = Random.State.make [| 0x9e7; i |] in
  let faulted = Random.State.make [| 0x9e7; i |] in
  for trial = 1 to k do
    let v0, s0 = plain_run plain in
    let env = Fault_env.perfect ~st:(Random.State.make [| 0x9e8; trial |]) in
    let v1, s1 = faulted_run ~faults:env faulted in
    let what = Printf.sprintf "%s trial %d" what trial in
    Alcotest.(check bool)
      (what ^ ": global verdict")
      (Runtime.global_verdict v0 = Runtime.Accept)
      (Runtime.global_verdict v1 = Runtime.Accept);
    Alcotest.(check int) (what ^ ": messages") s0.Runtime.messages
      s1.Runtime.messages;
    Alcotest.(check (list (pair (pair int int) int)))
      (what ^ ": per-edge traffic") s0.Runtime.per_edge s1.Runtime.per_edge
  done;
  Alcotest.(check int)
    (what ^ ": coin stream position")
    (Random.State.bits plain) (Random.State.bits faulted)

(* A fault environment under which every register arrives as a fresh
   vector of the same value: the link corrupts every delivery, and the
   corruption is a copy. *)
let copying_env trial =
  Fault_env.make
    ~qnoise:(fun _ v -> Qdp_linalg.Vec.copy v)
    ~st:(Random.State.make [| 0xc09; trial |])
    { Fault.none with default_link = { Fault.perfect_link with corrupt = 1. } }

(* A backend's test values prepared for the noise-free run are only
   a shortcut: a run in which every register arrives as a copy, so
   that every node computes its test afresh, gives the same verdicts
   and traffic and leaves the coin stream at the same position. *)
let test_copied_registers (iter : strategies) () =
  let k = 50 in
  iter @@ fun what i prepare ->
  let plain_run = prepare () and copied_run = prepare () in
  let plain = Random.State.make [| 0xfa11; i |] in
  let copied = Random.State.make [| 0xfa11; i |] in
  let accepts = Array.map (fun v -> v = Runtime.Accept) in
  for trial = 1 to k do
    let v0, s0 = plain_run plain in
    let v1, s1 = copied_run ~faults:(copying_env trial) copied in
    let what = Printf.sprintf "%s trial %d" what trial in
    Alcotest.(check (array bool)) (what ^ ": verdicts") (accepts v0)
      (accepts v1);
    Alcotest.(check int) (what ^ ": messages") s0.Runtime.messages
      s1.Runtime.messages;
    Alcotest.(check (list (pair (pair int int) int)))
      (what ^ ": per-edge traffic") s0.Runtime.per_edge s1.Runtime.per_edge
  done;
  Alcotest.(check int)
    (what ^ ": coin stream position")
    (Random.State.bits plain) (Random.State.bits copied)

let kernel_calls () =
  let snap = Qdp_obs.Metrics.snapshot () in
  List.map
    (fun name ->
      match List.assoc_opt name snap with
      | Some (Qdp_obs.Metrics.Counter_v n) -> n
      | _ -> 0)
    [ "kernel.swap_accept.calls"; "kernel.perm_accept.calls" ]

(* The test kernels run in [prepare], not in the trial loop: with no
   faults, the SWAP and permutation-test counters grow by the same
   amount over 1 trial as over 50. *)
let test_kernels_in_prepare (iter : strategies) () =
  Qdp_obs.with_enabled true @@ fun () ->
  iter @@ fun what i prepare ->
  let growth trials =
    let run = prepare () in
    let st = Random.State.make [| 0x4015; i |] in
    let before = kernel_calls () in
    for _ = 1 to trials do
      ignore (run st : Runtime.verdict array * Runtime.stats)
    done;
    List.map2 ( - ) (kernel_calls ()) before
  in
  Alcotest.(check (list int))
    (what ^ ": kernel calls after prepare, 1 vs 50 trials")
    (growth 1) (growth 50)

let backend_cases test =
  List.filter_map
    (fun entry ->
      let info = Registry.info entry in
      if info.Registry.info_network then
        Some (Alcotest.test_case info.Registry.info_id `Quick (test entry))
      else None)
    (Registry.all ())

(* The backends whose nodes run SWAP or permutation tests, with the
   EQ tree's FGNP21 ablation as one more. *)
let quantum_test_cases test =
  List.map
    (fun id ->
      Alcotest.test_case id `Quick (test (iter_demo_strategies (entry id))))
    [ "gt"; "eq"; "eqt" ]
  @ [ Alcotest.test_case "eqt FGNP21" `Quick (test iter_fgnp21_strategies) ]

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
      ("prepared once", backend_cases test_prepared_once);
      ("perfect faults view", backend_cases test_perfect_faults_view);
      ("copied registers", quantum_test_cases test_copied_registers);
      ( "kernels in prepare",
        backend_cases (fun e -> test_kernels_in_prepare (iter_demo_strategies e))
        @ [
            Alcotest.test_case "eqt FGNP21" `Quick
              (test_kernels_in_prepare iter_fgnp21_strategies);
          ] );
    ]
