(* End-to-end tests of the paper's protocols: completeness, soundness
   against the attack libraries, cost accounting, and agreement between
   the closed-form engines and the sampled runtime execution. *)

open Qdp_codes
open Qdp_network
open Qdp_commcc
open Qdp_core

let rng = Random.State.make [| 0x9047 |]

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let distinct_pair st n =
  let x = Gf2.random st n in
  let rec other () =
    let y = Gf2.random st n in
    if Gf2.equal x y then other () else y
  in
  (x, other ())

(* --- EQ on a path (Theorem 19 / Section 3.2) --- *)

let test_eq_path_perfect_completeness () =
  for r = 1 to 8 do
    let p = Eq_path.make ~repetitions:3 ~seed:1 ~n:32 ~r () in
    let x = Gf2.random rng 32 in
    check_float ~eps:1e-12
      (Printf.sprintf "r=%d" r)
      1.
      (Eq_path.accept p x (Gf2.copy x) Strategy.Honest)
  done

let test_eq_path_soundness_bound () =
  (* every attack stays below the Lemma 17 single-round bound *)
  for r = 2 to 10 do
    let p = Eq_path.make ~repetitions:1 ~seed:2 ~n:32 ~r () in
    let x, y = distinct_pair rng 32 in
    let best, _ = Eq_path.best_attack_accept p x y in
    let bound = Eq_path.soundness_bound_single ~r in
    Alcotest.(check bool)
      (Printf.sprintf "r=%d attack %.5f <= bound %.5f" r best bound)
      true (best <= bound +. 1e-9)
  done

let test_eq_path_repetition_kills_attacks () =
  let r = 5 in
  let p = Eq_path.make ~seed:3 ~n:32 ~r () in
  let x, y = distinct_pair rng 32 in
  let single, name = Eq_path.best_attack_accept p x y in
  let amplified = Sim.repeat_accept p.Eq_path.repetitions single in
  Alcotest.(check bool)
    (Printf.sprintf "%s amplifies to %.2e < 1/3" name amplified)
    true (amplified < 1. /. 3.)

let test_eq_path_interpolation_scaling () =
  (* the geodesic attack's rejection probability shrinks as Theta(1/r):
     rejection(2r) should be roughly half of rejection(r) *)
  let x, y = distinct_pair rng 64 in
  let reject r =
    let p = Eq_path.make ~repetitions:1 ~seed:4 ~n:64 ~r () in
    1. -. Eq_path.single_round_accept p x y Strategy.Geodesic
  in
  let r8 = reject 8 and r16 = reject 16 in
  let ratio = r8 /. r16 in
  Alcotest.(check bool)
    (Printf.sprintf "rejection ratio %.3f in [1.5, 2.5]" ratio)
    true
    (ratio > 1.5 && ratio < 2.5)

let test_fgnp_forwarding_variant () =
  (* completeness stays perfect; the per-round attack is strictly
     stronger (soundness weaker) than with the symmetrization step *)
  let n = 32 and r = 6 in
  let p = Eq_path.make ~repetitions:1 ~seed:44 ~n ~r () in
  let x, y = distinct_pair rng n in
  Alcotest.(check (float 1e-12)) "forwarding completeness" 1.
    (Eq_path.fgnp_forwarding_accept p x (Gf2.copy x) Strategy.Honest);
  let sym_attack, _ = Eq_path.best_attack_accept p x y in
  let fwd_attack =
    List.fold_left
      (fun best (_, s) -> Float.max best (Eq_path.fgnp_forwarding_accept p x y s))
      0.
      (Eq_path.attack_library p x y)
  in
  Alcotest.(check bool)
    (Printf.sprintf "forwarding attack %.4f >= symmetrized %.4f" fwd_attack
       sym_attack)
    true
    (fwd_attack >= sym_attack -. 1e-9);
  (* but the proof is half the registers *)
  Alcotest.(check int) "half the registers"
    ((Eq_path.costs p).Report.local_proof_qubits / 2)
    (Eq_path.fgnp_costs p).Report.local_proof_qubits

let test_eq_path_costs () =
  let p = Eq_path.make ~repetitions:10 ~seed:5 ~n:32 ~r:6 () in
  let c = Eq_path.costs p in
  let q = Eq_path.fingerprint_qubits p in
  Alcotest.(check int) "local proof 2kq" (2 * 10 * q) c.Report.local_proof_qubits;
  Alcotest.(check int) "total proof (r-1)2kq" (5 * 2 * 10 * q)
    c.Report.total_proof_qubits;
  Alcotest.(check int) "1 round" 1 c.Report.rounds

let test_eq_path_paper_repetitions () =
  Alcotest.(check int) "k(2)" 162 (Eq_path.paper_repetitions ~r:2);
  Alcotest.(check int) "k(10)" 4050 (Eq_path.paper_repetitions ~r:10)

(* --- EQ on trees (Theorem 19) --- *)

let test_eq_tree_completeness_star () =
  let g = Graph.star 5 in
  let p = Eq_tree.make ~repetitions:2 ~seed:6 ~n:24 ~r:2 () in
  let x = Gf2.random rng 24 in
  let inputs = Array.make 5 (Gf2.copy x) in
  check_float ~eps:1e-12 "star completeness" 1.
    (Eq_tree.accept p g ~terminals:[ 1; 2; 3; 4; 5 ] ~inputs Eq_tree.Honest)

let test_eq_tree_completeness_random_graph () =
  let st = Random.State.make [| 0x33 |] in
  let g = Graph.random_connected st ~n:20 ~extra_edges:6 in
  let p = Eq_tree.make ~repetitions:2 ~seed:7 ~n:16 ~r:6 () in
  let x = Gf2.random rng 16 in
  let terminals = [ 0; 5; 11; 19 ] in
  let inputs = Array.make 4 (Gf2.copy x) in
  check_float ~eps:1e-12 "random graph completeness" 1.
    (Eq_tree.accept p g ~terminals ~inputs Eq_tree.Honest)

let test_eq_tree_soundness () =
  let g = Graph.balanced_tree ~arity:2 ~depth:3 in
  let terminals = [ 7; 8; 11; 14 ] in
  let p = Eq_tree.make ~repetitions:1 ~seed:8 ~n:24 ~r:6 () in
  let x, y = distinct_pair rng 24 in
  let inputs = [| Gf2.copy x; Gf2.copy x; y; Gf2.copy x |] in
  let best, name = Eq_tree.best_attack_accept p g ~terminals ~inputs in
  Alcotest.(check bool)
    (Printf.sprintf "best tree attack %.4f (%s) < 1" best name)
    true (best < 0.9999);
  let k = Eq_path.paper_repetitions ~r:6 in
  Alcotest.(check bool) "amplified < 1/3" true
    (Sim.repeat_accept k best < 1. /. 3.)

let test_eq_tree_permutation_vs_fgnp () =
  (* the FGNP21 random-child variant is weaker per round on a star with
     many children: its acceptance on a bad input is higher *)
  let g = Graph.star 5 in
  let terminals = [ 1; 2; 3; 4; 5 ] in
  let x, y = distinct_pair rng 24 in
  let inputs = [| Gf2.copy x; Gf2.copy x; Gf2.copy x; Gf2.copy x; y |] in
  let accept variant =
    let p =
      Eq_tree.make ~repetitions:1 ~use_permutation_test:variant ~seed:9 ~n:24
        ~r:2 ()
    in
    fst (Eq_tree.best_attack_accept p g ~terminals ~inputs)
  in
  let perm = accept true and fgnp = accept false in
  Alcotest.(check bool)
    (Printf.sprintf "perm test %.4f <= fgnp %.4f" perm fgnp)
    true (perm <= fgnp +. 1e-9)

let test_eq_tree_costs_independent_of_t () =
  (* Theorem 19's point: local proof size does not grow with t *)
  let p = Eq_tree.make ~repetitions:5 ~seed:10 ~n:32 ~r:3 () in
  let cost_for t =
    let g = Graph.star t in
    let tr = Eq_tree.tree_of g ~terminals:(List.init t (fun i -> i + 1)) in
    (Eq_tree.costs p tr).Report.local_proof_qubits
  in
  let c3 = cost_for 3 and c6 = cost_for 6 in
  (* only the certificate bits (log of graph size) may differ *)
  Alcotest.(check bool)
    (Printf.sprintf "local cost %d vs %d nearly equal" c3 c6)
    true
    (abs (c6 - c3) <= 2)

(* --- GT (Theorem 26) --- *)

let test_gt_completeness () =
  for trial = 0 to 9 do
    let st = Random.State.make [| trial; 0x6f |] in
    let x = Gf2.random st 16 and y = Gf2.random st 16 in
    if Gf2.compare_big_endian x y > 0 then begin
      let p = Gt.make ~repetitions:2 ~seed:11 ~n:16 ~r:4 () in
      check_float ~eps:1e-12 "GT completeness" 1.
        (Gt.accept p x y (Gt.honest_prover x y))
    end
  done

let test_gt_soundness () =
  for trial = 0 to 4 do
    let st = Random.State.make [| trial; 0x70 |] in
    let a = Gf2.random st 12 and b = Gf2.random st 12 in
    let x, y =
      if Gf2.compare_big_endian a b <= 0 then (a, b) else (b, a)
    in
    (* GT (x, y) = 0 *)
    let p = Gt.make ~repetitions:1 ~seed:12 ~n:12 ~r:4 () in
    let best, name = Gt.best_attack_accept p x y in
    Alcotest.(check bool)
      (Printf.sprintf "GT attack %.4f (%s)" best name)
      true
      (best <= Eq_path.soundness_bound_single ~r:4 +. 1e-9)
  done

let test_gt_equal_inputs_rejected () =
  let x = Gf2.random rng 12 in
  let p = Gt.make ~repetitions:1 ~seed:13 ~n:12 ~r:3 () in
  let best, _ = Gt.best_attack_accept p x (Gf2.copy x) in
  (* on x = y every index i has x_i = y_i, so the end checks kill every
     committed index *)
  check_float ~eps:1e-12 "x = y unprovable" 0. best

let test_gt_variants () =
  let x = Gf2.of_int ~width:8 200 and y = Gf2.of_int ~width:8 77 in
  let p = Gt.make ~repetitions:2 ~seed:14 ~n:8 ~r:3 () in
  check_float ~eps:1e-9 "Gt yes" 1. (Gt.variant_honest_accept p Gt.Gt x y);
  check_float ~eps:1e-9 "Ge yes" 1. (Gt.variant_honest_accept p Gt.Ge x y);
  check_float ~eps:1e-9 "Lt yes (swapped)" 1. (Gt.variant_honest_accept p Gt.Lt y x);
  check_float ~eps:1e-9 "Le on equal" 1.
    (Gt.variant_honest_accept p Gt.Le x (Gf2.copy x));
  (* no instances *)
  let atk = Gt.variant_best_attack p Gt.Gt y x in
  Alcotest.(check bool) "Gt no-instance attack bounded" true
    (atk <= Eq_path.soundness_bound_single ~r:3 +. 1e-9)

let test_gt_costs_logarithmic () =
  let c n =
    (Gt.costs (Gt.make ~repetitions:1 ~seed:15 ~n ~r:4 ())).Report
    .local_proof_qubits
  in
  (* 16x input growth: cost grows by an additive O(1) qubits *)
  Alcotest.(check bool) "log growth" true (c 256 - c 16 <= 15)

(* --- RV (Theorem 29) --- *)

let test_rv_value () =
  let inputs = [| Gf2.of_int ~width:4 9; Gf2.of_int ~width:4 3; Gf2.of_int ~width:4 12 |] in
  Alcotest.(check bool) "x0 is 2nd largest" true (Rv.rv_value ~inputs ~i:0 ~j:2);
  Alcotest.(check bool) "x2 is largest" true (Rv.rv_value ~inputs ~i:2 ~j:1);
  Alcotest.(check bool) "x1 is smallest" true (Rv.rv_value ~inputs ~i:1 ~j:3);
  Alcotest.(check bool) "x0 is not largest" false (Rv.rv_value ~inputs ~i:0 ~j:1)

let test_rv_completeness () =
  let g = Graph.star 4 in
  let terminals = [ 1; 2; 3; 4 ] in
  let inputs =
    [| Gf2.of_int ~width:8 40; Gf2.of_int ~width:8 200; Gf2.of_int ~width:8 10;
       Gf2.of_int ~width:8 90 |]
  in
  let p = Rv.make ~repetitions:2 ~seed:16 ~n:8 ~r:2 () in
  (* terminal 1 holds 200: the largest *)
  check_float ~eps:1e-9 "rank 1 verified" 1.
    (Rv.honest_accept p g ~terminals ~inputs ~i:1 ~j:1);
  check_float ~eps:1e-9 "rank 3 of terminal 3" 1.
    (Rv.honest_accept p g ~terminals ~inputs ~i:3 ~j:2)

let test_rv_honest_rejects_wrong_rank () =
  let g = Graph.star 3 in
  let terminals = [ 1; 2; 3 ] in
  let inputs =
    [| Gf2.of_int ~width:8 5; Gf2.of_int ~width:8 100; Gf2.of_int ~width:8 60 |]
  in
  let p = Rv.make ~repetitions:1 ~seed:17 ~n:8 ~r:2 () in
  check_float ~eps:1e-12 "wrong rank count-rejected" 0.
    (Rv.honest_accept p g ~terminals ~inputs ~i:0 ~j:1)

let test_rv_soundness () =
  let g = Graph.star 3 in
  let terminals = [ 1; 2; 3 ] in
  let inputs =
    [| Gf2.of_int ~width:8 5; Gf2.of_int ~width:8 100; Gf2.of_int ~width:8 60 |]
  in
  let p = Rv.make ~repetitions:1 ~seed:18 ~n:8 ~r:2 () in
  (* claiming terminal 0 (value 5) is the largest requires lying on two
     GT paths *)
  let best, name = Rv.best_attack_accept p g ~terminals ~inputs ~i:0 ~j:1 in
  Alcotest.(check bool)
    (Printf.sprintf "rv attack %.4f (%s) < 1" best name)
    true (best < 0.9999)

(* --- relay protocol (Theorem 22) --- *)

let test_relay_completeness () =
  let p = Relay.make ~inner_repetitions:2 ~seed:19 ~n:27 ~r:12 () in
  let x = Gf2.random rng 27 in
  check_float ~eps:1e-12 "relay completeness" 1.
    (Relay.accept p x (Gf2.copy x) (Relay.honest_prover p x))

let test_relay_positions () =
  let p = Relay.make ~spacing:3 ~seed:20 ~n:27 ~r:10 () in
  Alcotest.(check (list int)) "positions" [ 3; 6; 9 ] (Relay.relay_positions p)

let test_relay_soundness () =
  let p = Relay.make ~seed:21 ~n:27 ~r:12 () in
  let x, y = distinct_pair rng 27 in
  let best, name = Relay.best_attack_accept p x y in
  Alcotest.(check bool)
    (Printf.sprintf "relay attack %.4f (%s) < 1/3" best name)
    true (best < 1. /. 3.)

let test_relay_total_cost_beats_classical () =
  (* Theorem 22 vs Corollary 25: the quantum total grows like n^{2/3}
     in n while the classical lower bound grows linearly, so scaling
     the input by 8 must grow the quantum total by well under 8x *)
  let r = 64 in
  let total n =
    float_of_int
      (Relay.costs (Relay.make ~seed:22 ~n ~r ())).Report.total_proof_qubits
  in
  let ratio = total 4096 /. total 512 in
  Alcotest.(check bool)
    (Printf.sprintf "growth ratio %.2f well below linear 8x" ratio)
    true (ratio < 6.)

(* --- one-way compiler (Theorems 30/32) --- *)

let test_compiler_ham_completeness () =
  let n = 48 and d = 2 in
  let proto = Oneway.ham ~seed:23 ~n ~d in
  let g = Graph.star 3 in
  let terminals = [ 1; 2; 3 ] in
  let params = Oneway_compiler.make ~repetitions:1 ~amplification:1 ~r:2 ~t:3 ~n () in
  let st = Random.State.make [| 0x77 |] in
  let x = Gf2.random st n in
  let inputs =
    Array.init 3 (fun i ->
        if i = 0 then Gf2.copy x else Gf2.xor x (Gf2.random_weight st n 1))
  in
  (* pairwise distance <= 2 = d: a yes instance *)
  Alcotest.(check bool) "yes instance" true
    (Problems.forall_t (Problems.ham ~d n) inputs);
  let p =
    Oneway_compiler.single_accept params proto g ~terminals ~inputs
      Oneway_compiler.Honest
  in
  check_float ~eps:1e-9 "block protocol is one-sided: completeness 1" 1. p

let test_compiler_ham_soundness () =
  let n = 48 and d = 2 in
  let proto = Oneway.repeat 5 (Oneway.ham ~seed:24 ~n ~d) in
  let g = Graph.star 3 in
  let terminals = [ 1; 2; 3 ] in
  let params = Oneway_compiler.make ~repetitions:1 ~amplification:1 ~r:2 ~t:3 ~n () in
  let st = Random.State.make [| 0x78 |] in
  let x = Gf2.random st n in
  let far = Gf2.xor x (Gf2.random_weight st n (8 * d)) in
  let inputs = [| Gf2.copy x; Gf2.copy x; far |] in
  let best, name = Oneway_compiler.best_attack_accept params proto g ~terminals ~inputs in
  Alcotest.(check bool)
    (Printf.sprintf "compiler attack %.4f (%s) < 0.75" best name)
    true (best < 0.75)

let test_compiler_eq_matches_tree_shape () =
  (* compiling the EQ one-way protocol yields another EQ verifier *)
  let n = 24 in
  let proto = Oneway.eq ~seed:25 ~n in
  let g = Graph.path 4 in
  let terminals = [ 0; 4 ] in
  let params = Oneway_compiler.make ~repetitions:1 ~amplification:1 ~r:4 ~t:2 ~n () in
  let x = Gf2.random rng n in
  let inputs = [| Gf2.copy x; Gf2.copy x |] in
  check_float ~eps:1e-9 "EQ compiled completeness" 1.
    (Oneway_compiler.single_accept params proto g ~terminals ~inputs
       Oneway_compiler.Honest);
  let x', y' = distinct_pair rng n in
  let best, _ =
    Oneway_compiler.best_attack_accept params proto g ~terminals
      ~inputs:[| x'; y' |]
  in
  Alcotest.(check bool) "EQ compiled soundness" true (best < 0.999)

let test_compiler_costs_scaling () =
  let n = 32 in
  let proto = Oneway.ham ~seed:26 ~n ~d:1 in
  let g = Graph.star 4 in
  let terminals = [ 1; 2; 3; 4 ] in
  let params = Oneway_compiler.make ~r:1 ~t:4 ~n () in
  let c = Oneway_compiler.costs params proto g ~terminals in
  Alcotest.(check bool) "total >= local" true
    (c.Report.total_proof_qubits >= c.Report.local_proof_qubits);
  Alcotest.(check int) "1 round" 1 c.Report.rounds

(* --- QMA compiler / LSD pipeline (Theorems 42/46) --- *)

let test_lsd_pipeline_close () =
  let st = Random.State.make [| 0x79 |] in
  let inst = Lsd.random_close st ~ambient:64 ~dim:2 in
  let params = Qmacc_compiler.make ~repetitions:1 ~r:4 () in
  let honest, _ = Qmacc_compiler.run_lsd_pipeline params ~ambient:64 ~inst in
  Alcotest.(check bool)
    (Printf.sprintf "close honest %.4f >= 0.9" honest)
    true (honest >= 0.9)

let test_lsd_pipeline_far () =
  let st = Random.State.make [| 0x80 |] in
  let inst = Lsd.random_far st ~ambient:256 ~dim:2 in
  let params = Qmacc_compiler.make ~repetitions:1 ~r:4 () in
  let honest, best = Qmacc_compiler.run_lsd_pipeline params ~ambient:256 ~inst in
  Alcotest.(check bool)
    (Printf.sprintf "far honest %.4f, best %.4f <= 0.05" honest best)
    true
    (honest <= 0.05 && best <= 0.05)

let test_qmacc_costs () =
  let proto = Qma_comm.lsd_oneway ~ambient:128 in
  let params = Qmacc_compiler.make ~repetitions:2 ~r:5 () in
  let c = Qmacc_compiler.costs params proto in
  Alcotest.(check int) "local proof 2k(gamma+mu)" (2 * 2 * 14)
    c.Report.local_proof_qubits;
  Alcotest.(check int) "v_0 proof + intermediates"
    ((2 * 7) + (4 * 2 * 2 * 14))
    c.Report.total_proof_qubits

let test_node_splitting_reduction () =
  let pc =
    Qma_star_reduction.uniform ~r:6 ~intermediate_proof:10 ~end_proof:0
      ~edge_message:4
  in
  let cut, costs = Qma_star_reduction.best_cut pc in
  Alcotest.(check bool) "cut in range" true (cut >= 0 && cut < 6);
  Alcotest.(check int) "total proof split" 50
    (costs.Qma_comm.proof_alice + costs.Qma_comm.proof_bob);
  Alcotest.(check int) "communication = edge" 4 costs.Qma_comm.communication;
  Alcotest.(check int) "QMA* total" 54 (Qma_comm.star_total costs)

(* --- runtime execution agrees with the closed form --- *)

let test_runtime_matches_closed_form () =
  let params = { Runtime_eq.n = 16; r = 4; seed = 27; repetitions = 1 } in
  let closed_params = Eq_path.make ~repetitions:1 ~seed:27 ~n:16 ~r:4 () in
  let x, y = distinct_pair rng 16 in
  let closed =
    Eq_path.single_round_accept closed_params x y (Strategy.Constant x)
  in
  let st = Random.State.make [| 0x81 |] in
  let run = Runtime_eq.prepare params x y Strategy.All_left in
  let sampled =
    Runtime.estimate_acceptance ~st ~trials:3000 (fun st ->
        fst (Runtime.accepted (run st)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "sampled %.3f vs closed %.3f" sampled closed)
    true
    (Float.abs (sampled -. closed) < 0.05)

let test_runtime_honest () =
  let params = { Runtime_eq.n = 16; r = 5; seed = 28; repetitions = 1 } in
  let x = Gf2.random rng 16 in
  let st = Random.State.make [| 0x82 |] in
  let ok, stats =
    Runtime.accepted
      (Runtime_eq.prepare params x (Gf2.copy x) Strategy.All_left st)
  in
  Alcotest.(check bool) "honest run accepts" true ok;
  Alcotest.(check int) "r messages" 5 stats.Runtime.messages

let () =
  Alcotest.run "protocols"
    [
      ( "eq_path",
        [
          Alcotest.test_case "perfect completeness" `Quick
            test_eq_path_perfect_completeness;
          Alcotest.test_case "soundness bound" `Quick test_eq_path_soundness_bound;
          Alcotest.test_case "repetition amplifies" `Quick
            test_eq_path_repetition_kills_attacks;
          Alcotest.test_case "interpolation 1/r scaling" `Quick
            test_eq_path_interpolation_scaling;
          Alcotest.test_case "FGNP21 forwarding ablation" `Quick
            test_fgnp_forwarding_variant;
          Alcotest.test_case "cost accounting" `Quick test_eq_path_costs;
          Alcotest.test_case "paper repetitions" `Quick
            test_eq_path_paper_repetitions;
        ] );
      ( "eq_tree",
        [
          Alcotest.test_case "star completeness" `Quick
            test_eq_tree_completeness_star;
          Alcotest.test_case "random graph completeness" `Quick
            test_eq_tree_completeness_random_graph;
          Alcotest.test_case "soundness" `Quick test_eq_tree_soundness;
          Alcotest.test_case "permutation vs FGNP21" `Quick
            test_eq_tree_permutation_vs_fgnp;
          Alcotest.test_case "cost independent of t" `Quick
            test_eq_tree_costs_independent_of_t;
        ] );
      ( "gt",
        [
          Alcotest.test_case "completeness" `Quick test_gt_completeness;
          Alcotest.test_case "soundness" `Quick test_gt_soundness;
          Alcotest.test_case "equal inputs" `Quick test_gt_equal_inputs_rejected;
          Alcotest.test_case "variants" `Quick test_gt_variants;
          Alcotest.test_case "log cost" `Quick test_gt_costs_logarithmic;
        ] );
      ( "rv",
        [
          Alcotest.test_case "predicate" `Quick test_rv_value;
          Alcotest.test_case "completeness" `Quick test_rv_completeness;
          Alcotest.test_case "count check" `Quick test_rv_honest_rejects_wrong_rank;
          Alcotest.test_case "soundness" `Quick test_rv_soundness;
        ] );
      ( "relay",
        [
          Alcotest.test_case "completeness" `Quick test_relay_completeness;
          Alcotest.test_case "positions" `Quick test_relay_positions;
          Alcotest.test_case "soundness" `Quick test_relay_soundness;
          Alcotest.test_case "beats classical total" `Quick
            test_relay_total_cost_beats_classical;
        ] );
      ( "oneway_compiler",
        [
          Alcotest.test_case "HAM completeness" `Quick
            test_compiler_ham_completeness;
          Alcotest.test_case "HAM soundness" `Quick test_compiler_ham_soundness;
          Alcotest.test_case "EQ compiled" `Quick test_compiler_eq_matches_tree_shape;
          Alcotest.test_case "costs" `Quick test_compiler_costs_scaling;
        ] );
      ( "qmacc",
        [
          Alcotest.test_case "LSD pipeline close" `Quick test_lsd_pipeline_close;
          Alcotest.test_case "LSD pipeline far" `Quick test_lsd_pipeline_far;
          Alcotest.test_case "costs" `Quick test_qmacc_costs;
          Alcotest.test_case "node splitting" `Quick test_node_splitting_reduction;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "matches closed form" `Quick
            test_runtime_matches_closed_form;
          Alcotest.test_case "honest run" `Quick test_runtime_honest;
        ] );
    ]
