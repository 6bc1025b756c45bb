(* Tests for the dQMA^sep tensor-network engine: agreement with the
   product engine on product proofs, the proof-class hierarchy, and
   optimizer sanity. *)

open Qdp_linalg
open Qdp_core

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let toy k = Exact.toy_state ~qubits:1 k

let test_matches_product_engine () =
  let x_state = toy 5 and y_state = toy 11 in
  for r = 2 to 6 do
    let states =
      Array.init (r - 1) (fun i ->
          States.geodesic x_state y_state
            (float_of_int (i + 1) /. float_of_int r))
    in
    let sep =
      Sep_sim.accept
        (Sep_sim.product_instance ~d:2 ~left:x_state ~states
           ~final:(Mat.of_vec y_state))
    in
    let sim =
      Sim.path_accept
        (Sim.two_state_chain ~r ~left:x_state ~right:y_state
           ~final:(fun reg -> Cx.norm2 (Vec.dot y_state reg.(0)))
           Strategy.Geodesic)
    in
    check_float ~eps:1e-10 (Printf.sprintf "r=%d" r) sim sep
  done

let test_matches_exact_on_bell_pairs () =
  (* a genuinely entangled within-node pair, validated against the
     global state-vector simulator *)
  let x_state = toy 3 and y_state = toy 7 in
  let r = 3 in
  let bell =
    Vec.normalize (Vec.of_array [| Cx.one; Cx.zero; Cx.zero; Cx.one |])
  in
  let sep =
    Sep_sim.accept
      {
        Sep_sim.d = 2;
        left = x_state;
        pairs = Array.make (r - 1) (Mat.of_vec bell);
        final = Mat.of_vec y_state;
      }
  in
  let cfg = { Exact.r; qubits = 1 } in
  let proof = Vec.tensor bell bell in
  let exact = Exact.accept_prob cfg ~x_state ~y_state ~proof in
  check_float ~eps:1e-9 "bell pairs agree with exact" exact sep

let test_honest_complete () =
  let s = toy 4 in
  let inst =
    Sep_sim.product_instance ~d:2 ~left:s ~states:(Array.make 4 s)
      ~final:(Mat.of_vec s)
  in
  check_float ~eps:1e-10 "honest accepted" 1. (Sep_sim.accept inst)

let test_hierarchy () =
  let x_state = toy 5 and y_state = toy 11 in
  for r = 2 to 4 do
    let cfg = { Exact.r; qubits = 1 } in
    let product = Exact.best_product_attack cfg ~x_state ~y_state in
    let st = Random.State.make [| r; 77 |] in
    let _, sep =
      Sep_sim.optimize st ~d:2 ~r ~left:x_state ~final:(Mat.of_vec y_state)
        ~sweeps:12
    in
    let global, _ = Exact.optimal_entangled_attack cfg ~x_state ~y_state in
    Alcotest.(check bool)
      (Printf.sprintf "r=%d: product %.5f <= sep %.5f" r product sep)
      true
      (product <= sep +. 1e-7);
    Alcotest.(check bool)
      (Printf.sprintf "r=%d: sep %.5f <= global %.5f" r sep global)
      true
      (sep <= global +. 1e-7)
  done

(* The same chain over random complex inputs, not only the fixed toy
   pair.  The coordinate ascent can stop in a local optimum below the
   geodesic product attack, so the node-entangled value is the best of
   the optimizer and that product proof as the Sep_sim engine scores
   it; the engine must score it as Exact does. *)
let prop_hierarchy_random_states =
  QCheck.Test.make ~name:"proof-class hierarchy over random states"
    ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (seed, k) ->
      let r, qubits =
        List.nth [ (2, 1); (3, 1); (4, 1); (2, 2); (3, 2) ] (k mod 5)
      in
      let d = 1 lsl qubits in
      let st = Random.State.make [| seed; k; 0x41e |] in
      let x_state = States.random_unit st d in
      let y_state = States.random_unit st d in
      let final = Mat.of_vec y_state in
      let cfg = { Exact.r; qubits } in
      let product = Exact.best_product_attack cfg ~x_state ~y_state in
      let states =
        Array.init (r - 1) (fun i ->
            States.geodesic x_state y_state
              (float_of_int (i + 1) /. float_of_int r))
      in
      let product_in_sep =
        Sep_sim.accept
          (Sep_sim.product_instance ~d ~left:x_state ~states ~final)
      in
      let _, optimized =
        Sep_sim.optimize st ~d ~r ~left:x_state ~final ~sweeps:12
      in
      let sep = Float.max optimized product_in_sep in
      let global, _ = Exact.optimal_entangled_attack cfg ~x_state ~y_state in
      if
        Float.abs (product -. product_in_sep) <= 1e-10
        && product <= sep +. 1e-7
        && sep <= global +. 1e-7
        && global <= 1. +. 1e-9
      then true
      else
        QCheck.Test.fail_reportf
          "r=%d q=%d: product %.9f (sep engine %.9f), sep %.9f, global %.9f"
          r qubits product product_in_sep sep global)

let test_optimizer_returns_consistent_value () =
  let x_state = toy 2 and y_state = toy 9 in
  let st = Random.State.make [| 13 |] in
  let inst, value =
    Sep_sim.optimize st ~d:2 ~r:3 ~left:x_state ~final:(Mat.of_vec y_state)
      ~sweeps:8
  in
  check_float ~eps:1e-9 "reported value matches instance" value
    (Sep_sim.accept inst)

let test_split_attack_hierarchy () =
  (* the dQMA(2)-style split-prover attack sits between the product
     and global optima *)
  let x_state = toy 5 and y_state = toy 11 in
  let cfg = { Exact.r = 4; qubits = 1 } in
  let st = Random.State.make [| 21 |] in
  let product = Exact.best_product_attack cfg ~x_state ~y_state in
  let split =
    Exact.optimal_split_attack st cfg ~x_state ~y_state ~cut_qubits:2 ~sweeps:10
  in
  let global, _ = Exact.optimal_entangled_attack cfg ~x_state ~y_state in
  Alcotest.(check bool)
    (Printf.sprintf "product %.5f <= split %.5f <= global %.5f" product split
       global)
    true
    (product <= split +. 1e-7 && split <= global +. 1e-7)

let test_optimized_product_attack () =
  (* the optimized product attack (pairs a (x) b with a <> b) dominates
     the hand-written geodesic library and stays below the certified
     global optimum *)
  let x_state = toy 5 and y_state = toy 11 in
  for r = 2 to 4 do
    let cfg = { Exact.r; qubits = 1 } in
    let library = Exact.best_product_attack cfg ~x_state ~y_state in
    let st = Random.State.make [| r; 31 |] in
    let _, prod =
      Sep_sim.optimize_product st ~d:2 ~r ~left:x_state
        ~final:(Mat.of_vec y_state) ~sweeps:10
    in
    let global, _ = Exact.optimal_entangled_attack cfg ~x_state ~y_state in
    Alcotest.(check bool)
      (Printf.sprintf "r=%d: optimized %.5f >= library %.5f - eps" r prod library)
      true
      (prod >= library -. 0.02);
    Alcotest.(check bool)
      (Printf.sprintf "r=%d: optimized %.5f <= global %.5f" r prod global)
      true
      (prod <= global +. 1e-7)
  done

let test_dimension_checks () =
  Alcotest.(check bool) "mismatched pair raises" true
    (try
       ignore
         (Sep_sim.accept
            {
              Sep_sim.d = 2;
              left = toy 1;
              pairs = [| Mat.identity 3 |];
              final = Mat.identity 2;
            });
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "sep_sim"
    [
      ( "sep_sim",
        [
          Alcotest.test_case "matches product engine" `Quick
            test_matches_product_engine;
          Alcotest.test_case "bell pairs vs exact" `Quick
            test_matches_exact_on_bell_pairs;
          Alcotest.test_case "honest complete" `Quick test_honest_complete;
          Alcotest.test_case "proof-class hierarchy" `Quick test_hierarchy;
          Alcotest.test_case "optimizer consistency" `Quick
            test_optimizer_returns_consistent_value;
          Alcotest.test_case "split-prover hierarchy" `Quick
            test_split_attack_hierarchy;
          Alcotest.test_case "optimized product attack" `Quick
            test_optimized_product_attack;
          Alcotest.test_case "dimension checks" `Quick test_dimension_checks;
          QCheck_alcotest.to_alcotest prop_hierarchy_random_states;
        ] );
    ]
