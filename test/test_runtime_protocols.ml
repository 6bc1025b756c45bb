(* Tests for the message-passing protocol executions: GT over the
   runtime (index checks, convergence to the closed form), the
   classical dMA baseline, and the Stinespring dilation. *)

open Qdp_linalg
open Qdp_quantum
open Qdp_codes
open Qdp_network
open Qdp_core

let rng = Random.State.make [| 0x87f |]

let gt_yes_pair st n =
  let rec go () =
    let a = Gf2.random st n and b = Gf2.random st n in
    match Gf2.compare_big_endian a b with
    | 0 -> go ()
    | c -> if c > 0 then (a, b) else (b, a)
  in
  go ()

(* --- runtime GT --- *)

let test_runtime_gt_honest () =
  let n = 16 and r = 5 in
  let x, y = gt_yes_pair rng n in
  let params = Gt.make ~repetitions:1 ~seed:21 ~n ~r () in
  let st = Random.State.make [| 1 |] in
  let ok, stats =
    Runtime.accepted
      (Runtime_gt.prepare params x y (Runtime_gt.honest x y) st)
  in
  Alcotest.(check bool) "honest GT run accepts" true ok;
  Alcotest.(check int) "r messages" r stats.Runtime.messages

let test_runtime_gt_converges () =
  let n = 12 and r = 4 in
  let x, y = gt_yes_pair rng n in
  (* swap roles: GT (y, x) = 0, attack with the witness-less best index *)
  let params = Gt.make ~repetitions:1 ~seed:22 ~n ~r () in
  (* choose a valid cheating index for inputs (y, x): y_i = 1, x_i = 0 *)
  let idx = ref (-1) in
  for i = n - 1 downto 0 do
    if Gf2.get y i && not (Gf2.get x i) then idx := i
  done;
  if !idx >= 0 then begin
    let prover =
      { Runtime_gt.node_index = (fun _ -> !idx); chain = Strategy.Geodesic }
    in
    let closed =
      Gt.single_round_accept params y x
        { Gt.index = !idx; eq_strategy = Strategy.Geodesic }
    in
    let st = Random.State.make [| 2 |] in
    let run = Runtime_gt.prepare params y x prover in
    let sampled =
      Runtime.estimate_acceptance ~st ~trials:3000 (fun st ->
          fst (Runtime.accepted (run st)))
    in
    Alcotest.(check bool)
      (Printf.sprintf "sampled %.3f vs closed %.3f" sampled closed)
      true
      (Float.abs (sampled -. closed) < 0.05)
  end

let test_runtime_gt_index_mismatch_caught () =
  let n = 16 and r = 5 in
  let params = Gt.make ~repetitions:1 ~seed:23 ~n ~r () in
  let x, y = gt_yes_pair rng n in
  let honest = Runtime_gt.honest x y in
  let i = honest.Runtime_gt.node_index 0 in
  (* a second index sent to half the nodes: the neighbour comparison
     catches the mismatch deterministically *)
  let other = if i + 1 < n then i + 1 else i - 1 in
  let prover =
    {
      Runtime_gt.node_index = (fun j -> if j <= r / 2 then i else other);
      chain = Strategy.All_left;
    }
  in
  let st = Random.State.make [| 3 |] in
  let run = Runtime_gt.prepare params x y prover in
  for _ = 1 to 20 do
    let ok, _ = Runtime.accepted (run st) in
    Alcotest.(check bool) "mismatched indices always rejected" false ok
  done

(* A claimed index outside [0, n) has no prefix to fingerprint: the
   node holding it rejects instead of raising, matching the closed
   form, which scores such a claim 0.  Claimed at every node, and at
   one middle node only (its right neighbour then hears nothing). *)
let test_runtime_gt_out_of_range_index () =
  let n = 16 and r = 5 in
  let params = Gt.make ~repetitions:1 ~seed:24 ~n ~r () in
  let x, y = gt_yes_pair rng n in
  let honest = Runtime_gt.honest x y in
  let witness = honest.Runtime_gt.node_index 0 in
  let st = Random.State.make [| 4 |] in
  List.iter
    (fun bad ->
      Alcotest.(check (float 0.)) (Printf.sprintf "closed form at %d" bad) 0.
        (Gt.single_round_accept params x y
           { Gt.index = bad; eq_strategy = Strategy.All_left });
      List.iter
        (fun (label, node_index) ->
          let ok, _ =
            Runtime.accepted
              (Runtime_gt.prepare params x y
                 { honest with Runtime_gt.node_index }
                 st)
          in
          Alcotest.(check bool)
            (Printf.sprintf "index %d claimed %s rejected" bad label)
            false ok)
        [
          ("everywhere", fun _ -> bad);
          ("at v_2", fun j -> if j = 2 then bad else witness);
        ])
    [ -1; n; n + 3 ]

(* --- classical dMA baseline --- *)

(* One run on the path of length 6; the verifier is deterministic, so
   the run reads no coin from its state. *)
let dma_run x y prover =
  let run = Runtime_dma.prepare ~r:6 x y prover in
  Runtime.accepted (run (Random.State.make [||]))

let test_dma_honest_equal () =
  let n = 24 in
  let x = Gf2.random rng n in
  let ok, stats = dma_run x (Gf2.copy x) (Runtime_dma.Honest x) in
  Alcotest.(check bool) "accepts equal inputs" true ok;
  (* every node tells both neighbours: 2 * r messages *)
  Alcotest.(check int) "messages" 12 stats.Runtime.messages

let test_dma_detects_difference () =
  let n = 24 in
  let x = Gf2.random rng n in
  let y = Gf2.copy x in
  Gf2.set y 3 (not (Gf2.get y 3));
  (* whatever single string the prover writes, an end node rejects *)
  List.iter
    (fun z ->
      let ok, _ = dma_run x y (Runtime_dma.Honest z) in
      Alcotest.(check bool) "rejected" false ok)
    [ x; y ];
  (* and a split assignment is caught by a neighbour comparison *)
  let split = Array.init 7 (fun j -> if j < 3 then x else y) in
  let ok, _ = dma_run x y (Runtime_dma.Assignment split) in
  Alcotest.(check bool) "split caught" false ok

let test_dma_cost () =
  Alcotest.(check int) "n bits per node" 128 (Runtime_dma.bits_per_node ~n:128)

(* --- randomized proof-labeling scheme --- *)

let test_rpls_honest () =
  let params = { Rpls.n = 32; r = 6; parity_checks = 4 } in
  let x = Gf2.random rng 32 in
  Alcotest.(check (float 1e-12)) "honest exact" 1.
    (Rpls.accept_probability params x (Gf2.copy x) (Rpls.Write x));
  let st = Random.State.make [| 7 |] in
  let ok, stats =
    Runtime.accepted (Rpls.prepare params x (Gf2.copy x) (Rpls.Write x) st)
  in
  Alcotest.(check bool) "honest sampled run accepts" true ok;
  Alcotest.(check int) "2r messages" 12 stats.Runtime.messages

let test_rpls_mismatch_probability () =
  let params = { Rpls.n = 32; r = 6; parity_checks = 3 } in
  let x = Gf2.random rng 32 in
  let y =
    let z = Gf2.copy x in
    Gf2.set z 5 (not (Gf2.get z 5));
    z
  in
  (* split assignment: one differing edge survives with prob 2^-3 *)
  let split = Array.init 7 (fun j -> if j < 3 then x else y) in
  Alcotest.(check (float 1e-12)) "one bad edge" 0.125
    (Rpls.accept_probability params x y (Rpls.Write_each split));
  (* sampled frequency agrees *)
  let st = Random.State.make [| 8 |] in
  let hits = ref 0 in
  let trials = 4000 in
  let run = Rpls.prepare params x y (Rpls.Write_each split) in
  for _ = 1 to trials do
    if fst (Runtime.accepted (run st)) then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "sampled %.3f near 0.125" freq)
    true
    (Float.abs (freq -. 0.125) < 0.03)

let test_rpls_end_checks () =
  let params = { Rpls.n = 16; r = 4; parity_checks = 2 } in
  let x = Gf2.random rng 16 in
  let y =
    let z = Gf2.copy x in
    Gf2.set z 0 (not (Gf2.get z 0));
    z
  in
  (* writing x everywhere on input (x, y): v_r rejects deterministically *)
  Alcotest.(check (float 1e-12)) "end check" 0.
    (Rpls.accept_probability params x y (Rpls.Write x))

let test_rpls_communication_savings () =
  let c = Rpls.costs { Rpls.n = 1024; r = 8; parity_checks = 5 } in
  Alcotest.(check int) "proof stays n" 1024 c.Report.local_proof_qubits;
  Alcotest.(check int) "messages shrink to 2 ell" 10 c.Report.local_message_qubits

(* --- Stinespring --- *)

let test_stinespring_isometry () =
  let ch = Channel.dephase 3 in
  let v = Channel.stinespring ch in
  (* V^dagger V = I *)
  Alcotest.(check bool) "isometry" true
    (Mat.equal ~eps:1e-9 (Mat.mul (Mat.adjoint v) v) (Mat.identity 3))

let test_stinespring_reproduces_channel () =
  let ch = Channel.symmetrization 2 in
  let v = Channel.stinespring ch in
  let n_env = List.length (Channel.kraus ch) in
  let st = Random.State.make [| 4 |] in
  let gaussian () =
    let u1 = Float.max 1e-12 (Random.State.float st 1.) in
    let u2 = Random.State.float st 1. in
    Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)
  in
  let psi =
    Vec.normalize (Vec.init 4 (fun _ -> Cx.make (gaussian ()) (gaussian ())))
  in
  let dilated = Mat.apply v psi in
  (* trace out the environment (last factor of size n_env) *)
  let rho_out =
    Density.partial_trace
      (Density.of_pure ~dims:[| 4; n_env |] dilated)
      ~keep:[ 0 ]
  in
  let direct = Channel.apply ch (Mat.of_vec psi) in
  Alcotest.(check bool) "tr_E (V rho V^+) = channel" true
    (Mat.equal ~eps:1e-8 (Density.mat rho_out) direct)

let () =
  Alcotest.run "runtime_protocols"
    [
      ( "runtime_gt",
        [
          Alcotest.test_case "honest run" `Quick test_runtime_gt_honest;
          Alcotest.test_case "converges" `Quick test_runtime_gt_converges;
          Alcotest.test_case "index mismatch caught" `Quick
            test_runtime_gt_index_mismatch_caught;
          Alcotest.test_case "out-of-range index rejected" `Quick
            test_runtime_gt_out_of_range_index;
        ] );
      ( "runtime_dma",
        [
          Alcotest.test_case "honest equal" `Quick test_dma_honest_equal;
          Alcotest.test_case "detects difference" `Quick test_dma_detects_difference;
          Alcotest.test_case "cost" `Quick test_dma_cost;
        ] );
      ( "rpls",
        [
          Alcotest.test_case "honest" `Quick test_rpls_honest;
          Alcotest.test_case "mismatch probability" `Quick
            test_rpls_mismatch_probability;
          Alcotest.test_case "end checks" `Quick test_rpls_end_checks;
          Alcotest.test_case "communication savings" `Quick
            test_rpls_communication_savings;
        ] );
      ( "stinespring",
        [
          Alcotest.test_case "isometry" `Quick test_stinespring_isometry;
          Alcotest.test_case "reproduces channel" `Quick
            test_stinespring_reproduces_channel;
        ] );
    ]
