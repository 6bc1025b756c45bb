open Qdp_codes
open Qdp_fingerprint

type params = { n : int; r : int; seed : int; repetitions : int }

let make ?repetitions ~seed ~n ~r () =
  if r < 1 then invalid_arg "Variants.make: r >= 1";
  let repetitions =
    match repetitions with
    | Some k -> k
    | None -> Eq_path.paper_repetitions ~r
  in
  { n; r; seed; repetitions }

type prover = Honest_strings | Strings of Gf2.t array

(* With classical proofs every node holds a definite string, so the
   chain is a sequence of independent SWAP tests between consecutive
   fingerprints plus the final POVM: no coins, a plain product. *)
let single_accept params x y prover =
  let fp = Fingerprint.standard ~seed:params.seed ~n:params.n in
  let strings =
    match prover with
    | Honest_strings -> Array.make (params.r - 1) x
    | Strings zs ->
        if Array.length zs <> params.r - 1 then
          invalid_arg "Variants: one string per intermediate node";
        zs
  in
  let state_of j =
    if j = 0 then Fingerprint.state fp x else Fingerprint.state fp strings.(j - 1)
  in
  let acc = ref 1. in
  let prev = ref (state_of 0) in
  for j = 1 to params.r - 1 do
    let here = state_of j in
    acc := !acc *. Sim.swap_accept [| !prev |] [| here |];
    prev := here
  done;
  !acc *. Fingerprint.accept_prob fp y !prev

let accept params x y prover =
  Sim.repeat_accept params.repetitions (single_accept params x y prover)

let best_attack_accept params x y =
  let all v = Strings (Array.make (params.r - 1) v) in
  let switch j =
    Strings (Array.init (params.r - 1) (fun i -> if i < j then x else y))
  in
  let candidates =
    ("all-x", all x) :: ("all-y", all y)
    :: List.init (params.r - 1) (fun j ->
           (Printf.sprintf "switch@%d" (j + 1), switch j))
  in
  (* unlogged search: score as one grid, fold in candidate order *)
  let arr = Array.of_list candidates in
  let scores =
    Qdp_dist.map_shards ~label:"attack/variants" ~n:(Array.length arr) (fun i ->
        let _, p = arr.(i) in
        single_accept params x y p)
  in
  let best = ref 0. and best_name = ref "none" in
  Array.iteri
    (fun i (name, _) ->
      if scores.(i) > !best then begin
        best := scores.(i);
        best_name := name
      end)
    arr;
  (!best, !best_name)

let costs params =
  let q = Fingerprint.qubits_of_n params.n in
  let k = params.repetitions in
  {
    Report.local_proof_qubits = (if params.r >= 2 then params.n else 0);
    total_proof_qubits = (params.r - 1) * params.n;
    local_message_qubits = k * q;
    total_message_qubits = params.r * k * q;
    rounds = 1;
  }

let locc_transform (c : Report.costs) ~d_max =
  let s_c = c.Report.local_proof_qubits in
  let s_m = c.Report.local_message_qubits in
  let s_tm = c.Report.total_message_qubits in
  {
    Report.local_proof_qubits = s_c + (d_max * s_m * s_tm);
    total_proof_qubits = c.Report.total_proof_qubits + (d_max * s_m * s_tm);
    local_message_qubits = s_m * s_tm;
    total_message_qubits = c.Report.total_message_qubits * s_tm;
    rounds = c.Report.rounds;
  }

let corollary21_local_proof ~d_max ~vertices ~r ~n =
  let logn = Float.log (float_of_int (max 2 n)) /. Float.log 2. in
  float_of_int (d_max * vertices * r * r * r * r) *. logn *. logn
