(* Property-based tests over the protocols: invariants that must hold
   for every input, checked by qcheck over randomized instances, plus
   the runtime-tree convergence check. *)

open Qdp_codes
open Qdp_network
open Qdp_core

let distinct_pair st n =
  let x = Gf2.random st n in
  let rec other () =
    let y = Gf2.random st n in
    if Gf2.equal x y then other () else y
  in
  (x, other ())

let prop_eq_path_perfect_completeness =
  QCheck.Test.make ~name:"EQ path: completeness exactly 1" ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (seed, rr) ->
      let n = 8 + (seed mod 40) in
      let r = 1 + (rr mod 9) in
      let st = Random.State.make [| seed; 1 |] in
      let x = Gf2.random st n in
      let p = Eq_path.make ~repetitions:2 ~seed ~n ~r () in
      Eq_path.accept p x (Gf2.copy x) Strategy.Honest >= 1.0 -. 1e-9)

let prop_eq_path_attacks_below_bound =
  QCheck.Test.make ~name:"EQ path: every attack below the Lemma 17 bound"
    ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (seed, rr) ->
      let n = 8 + (seed mod 40) in
      let r = 2 + (rr mod 8) in
      let st = Random.State.make [| seed; 2 |] in
      let x, y = distinct_pair st n in
      let p = Eq_path.make ~repetitions:1 ~seed ~n ~r () in
      let best, _ = Eq_path.best_attack_accept p x y in
      best <= Eq_path.soundness_bound_single ~r +. 1e-9)

let prop_eq_path_accept_is_probability =
  QCheck.Test.make ~name:"EQ path: acceptance in [0, 1]" ~count:40
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, rr, cut) ->
      let n = 8 + (seed mod 24) in
      let r = 2 + (rr mod 6) in
      let st = Random.State.make [| seed; 3 |] in
      let x, y = distinct_pair st n in
      let p = Eq_path.make ~repetitions:1 ~seed ~n ~r () in
      let v = Eq_path.single_round_accept p x y (Strategy.Switch (cut mod r)) in
      v >= -1e-12 && v <= 1. +. 1e-12)

let prop_gt_completeness =
  QCheck.Test.make ~name:"GT: completeness exactly 1 on yes instances" ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (seed, rr) ->
      let n = 6 + (seed mod 20) in
      let r = 1 + (rr mod 6) in
      let st = Random.State.make [| seed; 4 |] in
      let a = Gf2.random st n and b = Gf2.random st n in
      match Gf2.compare_big_endian a b with
      | 0 -> true
      | c ->
          let x, y = if c > 0 then (a, b) else (b, a) in
          let p = Gt.make ~repetitions:2 ~seed ~n ~r () in
          Gt.accept p x y (Gt.honest_prover x y) >= 1.0 -. 1e-9)

let prop_gt_no_witness_no_acceptance =
  QCheck.Test.make ~name:"GT: x <= y admits no index passing both ends"
    ~count:40 QCheck.small_nat
    (fun seed ->
      let n = 6 + (seed mod 14) in
      let st = Random.State.make [| seed; 5 |] in
      let a = Gf2.random st n and b = Gf2.random st n in
      let x, y =
        if Gf2.compare_big_endian a b <= 0 then (a, b) else (b, a)
      in
      (* on a no instance every committed index either fails an end
         check or runs EQ on unequal prefixes: acceptance < 1 *)
      let p = Gt.make ~repetitions:1 ~seed ~n ~r:3 () in
      let best, _ = Gt.best_attack_accept p x y in
      best < 1.0 -. 1e-9)

let prop_dqcma_completeness =
  QCheck.Test.make ~name:"dQCMA: completeness exactly 1" ~count:30
    QCheck.(pair small_nat small_nat)
    (fun (seed, rr) ->
      let n = 8 + (seed mod 24) in
      let r = 2 + (rr mod 6) in
      let st = Random.State.make [| seed; 6 |] in
      let x = Gf2.random st n in
      let p = Variants.make ~repetitions:3 ~seed ~n ~r () in
      Variants.accept p x (Gf2.copy x) Variants.Honest_strings >= 1.0 -. 1e-9)

let prop_relay_completeness =
  QCheck.Test.make ~name:"relay: completeness exactly 1" ~count:20
    QCheck.(pair small_nat small_nat)
    (fun (seed, rr) ->
      let n = 8 + (seed mod 24) in
      let r = 4 + (rr mod 12) in
      let st = Random.State.make [| seed; 7 |] in
      let x = Gf2.random st n in
      let p = Relay.make ~inner_repetitions:2 ~seed ~n ~r () in
      Relay.accept p x (Gf2.copy x) (Relay.honest_prover p x) >= 1.0 -. 1e-9)

let prop_tree_completeness_random_graphs =
  QCheck.Test.make ~name:"EQ tree: completeness 1 on random graphs" ~count:20
    QCheck.small_nat
    (fun seed ->
      let st = Random.State.make [| seed; 8 |] in
      let nodes = 8 + (seed mod 12) in
      let g = Graph.random_connected st ~n:nodes ~extra_edges:(seed mod 5) in
      let t = 2 + (seed mod 3) in
      let terminals =
        List.sort_uniq compare (List.init t (fun i -> i * (nodes - 1) / t))
      in
      if List.length terminals < 2 then true
      else begin
        let n = 12 in
        let x = Gf2.random st n in
        let inputs = Array.make (List.length terminals) (Gf2.copy x) in
        let p = Eq_tree.make ~repetitions:1 ~seed ~n ~r:nodes () in
        Eq_tree.accept p g ~terminals ~inputs Eq_tree.Honest >= 1.0 -. 1e-9
      end)

let prop_rv_honest_iff_true =
  QCheck.Test.make ~name:"RV: honest acceptance is 1 iff the rank is true"
    ~count:30 QCheck.small_nat
    (fun seed ->
      
      let t = 3 + (seed mod 3) in
      let g = Graph.star t in
      let terminals = List.init t (fun i -> i + 1) in
      let n = 8 in
      (* distinct inputs so ranks are unambiguous *)
      let perm = Array.init t (fun i -> (i * 7919) mod 251 mod (1 lsl n)) in
      let inputs = Array.map (Gf2.of_int ~width:n) perm in
      let p = Rv.make ~repetitions:1 ~seed ~n ~r:2 () in
      let i = seed mod t and j = 1 + (seed mod t) in
      let truth = Rv.rv_value ~inputs ~i ~j in
      let acc = Rv.honest_accept p g ~terminals ~inputs ~i ~j in
      if truth then acc >= 1.0 -. 1e-9 else acc = 0.0)

let prop_swap_accept_range =
  QCheck.Test.make ~name:"SWAP acceptance always in [1/2, 1]" ~count:60
    QCheck.small_nat
    (fun seed ->
      let st = Random.State.make [| seed; 10 |] in
      let gaussian () =
        let u1 = Float.max 1e-12 (Random.State.float st 1.) in
        let u2 = Random.State.float st 1. in
        Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)
      in
      let v n =
        Qdp_linalg.Vec.normalize
          (Qdp_linalg.Vec.init n (fun _ -> Qdp_linalg.Cx.re (gaussian ())))
      in
      let d = 2 + (seed mod 14) in
      let p = Sim.swap_accept [| v d |] [| v d |] in
      p >= 0.5 -. 1e-9 && p <= 1. +. 1e-9)

(* --- runtime-tree convergence --- *)

let test_runtime_tree_honest () =
  let g = Graph.star 4 in
  let terminals = [ 1; 2; 3; 4 ] in
  let n = 16 in
  let st = Random.State.make [| 0x5a |] in
  let x = Gf2.random st n in
  let inputs = Array.make 4 (Gf2.copy x) in
  let p = Eq_tree.make ~repetitions:1 ~seed:11 ~n ~r:2 () in
  let ok, stats =
    Runtime.accepted
      (Runtime_tree.prepare p g ~terminals ~inputs Eq_tree.Honest st)
  in
  Alcotest.(check bool) "honest run accepts" true ok;
  Alcotest.(check bool) "messages flowed" true (stats.Runtime.messages > 0)

let test_runtime_tree_converges () =
  let g = Graph.star 3 in
  let terminals = [ 1; 2; 3 ] in
  let n = 16 in
  let st = Random.State.make [| 0x5b |] in
  let x, y = distinct_pair st n in
  let inputs = [| Gf2.copy x; Gf2.copy x; y |] in
  let p = Eq_tree.make ~repetitions:1 ~seed:12 ~n ~r:2 () in
  let closed =
    Eq_tree.single_round_accept p g ~terminals ~inputs (Eq_tree.Constant x)
  in
  let run =
    Runtime_tree.prepare p g ~terminals ~inputs (Eq_tree.Constant x)
  in
  let sampled =
    Runtime.estimate_acceptance ~st ~trials:4000 (fun st ->
        fst (Runtime.accepted (run st)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "sampled %.3f vs closed %.3f" sampled closed)
    true
    (Float.abs (sampled -. closed) < 0.04)

let test_runtime_tree_fgnp_variant () =
  let g = Graph.star 4 in
  let terminals = [ 1; 2; 3; 4 ] in
  let n = 16 in
  let st = Random.State.make [| 0x5c |] in
  let x, y = distinct_pair st n in
  let inputs = [| Gf2.copy x; Gf2.copy x; Gf2.copy x; y |] in
  let p =
    Eq_tree.make ~repetitions:1 ~use_permutation_test:false ~seed:13 ~n ~r:2 ()
  in
  let closed =
    Eq_tree.single_round_accept p g ~terminals ~inputs (Eq_tree.Constant x)
  in
  let run =
    Runtime_tree.prepare p g ~terminals ~inputs (Eq_tree.Constant x)
  in
  let sampled =
    Runtime.estimate_acceptance ~st ~trials:4000 (fun st ->
        fst (Runtime.accepted (run st)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "fgnp sampled %.3f vs closed %.3f" sampled closed)
    true
    (Float.abs (sampled -. closed) < 0.04)

let () =
  Alcotest.run "qcheck_protocols"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_eq_path_perfect_completeness;
            prop_eq_path_attacks_below_bound;
            prop_eq_path_accept_is_probability;
            prop_gt_completeness;
            prop_gt_no_witness_no_acceptance;
            prop_dqcma_completeness;
            prop_relay_completeness;
            prop_tree_completeness_random_graphs;
            prop_rv_honest_iff_true;
            prop_swap_accept_range;
          ] );
      ( "runtime_tree",
        [
          Alcotest.test_case "honest run" `Quick test_runtime_tree_honest;
          Alcotest.test_case "converges to closed form" `Quick
            test_runtime_tree_converges;
          Alcotest.test_case "FGNP21 variant converges" `Quick
            test_runtime_tree_fgnp_variant;
        ] );
    ]
