(* Quickstart: verify equality of two 64-bit strings held at the two
   ends of a 6-hop path, with an untrusted prover supplying quantum
   fingerprints to the intermediate nodes (Algorithm 3/4 of the paper).

   Run with: dune exec examples/quickstart.exe *)

open Qdp_codes
open Qdp_network
open Qdp_core

let () =
  let n = 64 and r = 6 in
  let rng = Random.State.make [| 2024 |] in
  let x = Gf2.random rng n in
  let y = Gf2.random rng n in

  (* Protocol parameters: the paper's repetition count k = O(r^2)
     drives the soundness error below 1/3. *)
  let params = Eq_path.make ~seed:7 ~n ~r () in
  Printf.printf "EQ on a path: n = %d bits, r = %d hops, k = %d repetitions\n"
    n r params.Eq_path.repetitions;
  let costs = Eq_path.costs params in
  Format.printf "costs: %a@." Report.pp_costs costs;
  Printf.printf "(a classical dMA protocol needs >= %d bits total -- Corollary 25)\n\n"
    ((r - 1) / 2 * (n - 1) / 2);

  (* Case 1: the strings are equal; the honest prover convinces
     everyone with certainty (perfect completeness). *)
  let p_equal = Eq_path.accept params x (Gf2.copy x) Strategy.Honest in
  Printf.printf "x = y, honest prover:      Pr[all accept] = %.6f\n" p_equal;

  (* Case 2: the strings differ; the best cheating prover we know is
     the geodesic interpolation, and repetition crushes it. *)
  let single, name = Eq_path.best_attack_accept params x y in
  Printf.printf "x <> y, best attack (%s):\n" name;
  Printf.printf "  single round:            Pr[all accept] = %.6f\n" single;
  Printf.printf "  paper bound (Lemma 17):  %.6f\n"
    (Eq_path.soundness_bound_single ~r);
  Printf.printf "  after k repetitions:     Pr[all accept] = %.3e\n\n"
    (Sim.repeat_accept params.Eq_path.repetitions single);

  (* The same protocol as a real message-passing execution on the
     network runtime: fingerprints travel as messages, SWAP tests are
     sampled, verdicts come back per node.  [prepare] builds the
     instance's states once; each trial only draws the verifier's
     coins. *)
  let rt = { Runtime_eq.n; r; seed = 7; repetitions = 1 } in
  let st = Random.State.make [| 99 |] in
  let frequency x y strategy =
    let run = Runtime_eq.prepare rt x y strategy in
    Runtime.estimate_acceptance ~st ~trials:2000 (fun st ->
        fst (Runtime.accepted (run st)))
  in
  let freq_equal = frequency x (Gf2.copy x) Strategy.All_left in
  let freq_diff = frequency x y Strategy.Geodesic in
  Printf.printf "message-passing execution (2000 sampled runs each):\n";
  Printf.printf "  x = y honest:  accepted %.3f of runs\n" freq_equal;
  Printf.printf "  x <> y attack: accepted %.3f of runs (closed form %.3f)\n"
    freq_diff
    (Eq_path.single_round_accept params x y Strategy.Geodesic)
