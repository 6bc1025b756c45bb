open Qdp_codes
open Qdp_network

type params = { n : int; r : int; parity_checks : int }
type prover = Write of Gf2.t | Write_each of Gf2.t array

let proofs_of params prover =
  match prover with
  | Write z -> Array.make (params.r + 1) z
  | Write_each a ->
      if Array.length a <> params.r + 1 then
        invalid_arg "Rpls: one proof per node";
      a

let accept_probability params x y prover =
  let w = proofs_of params prover in
  if not (Gf2.equal w.(0) x) then 0.
  else if not (Gf2.equal w.(params.r) y) then 0.
  else begin
    let p_edge = Float.pow 0.5 (float_of_int params.parity_checks) in
    let acc = ref 1. in
    for j = 0 to params.r - 1 do
      if not (Gf2.equal w.(j) w.(j + 1)) then acc := !acc *. p_edge
    done;
    !acc
  end

type node_state = {
  parities : bool array;  (** the node's proof against the shared seeds *)
  mutable verdict : Runtime.verdict;
}

(* Classical payloads again: corruption flips one parity bit of the
   exchanged check vector. *)
let flip_parity st = function
  | [] -> []
  | payload ->
      let a = Array.of_list payload in
      let i = Random.State.int st (Array.length a) in
      a.(i) <- not a.(i);
      Array.to_list a

let prepare params x y prover =
  let w = proofs_of params prover in
  let g = Graph.path params.r in
  (* the end nodes' input checks need no randomness *)
  let anchored =
    Array.mapi
      (fun id proof ->
        not
          ((id = 0 && not (Gf2.equal proof x))
          || (id = params.r && not (Gf2.equal proof y))))
      w
  in
  fun ?faults st ->
    let faults = Option.map (Fault_env.injector ~corrupt:flip_parity) faults in
    (* shared randomness: the same parity vectors at every node *)
    let seeds =
      Array.init params.parity_checks (fun _ -> Gf2.random st params.n)
    in
    let program =
      {
        Runtime.init =
          (fun id ->
            {
              parities = Array.map (fun s -> Gf2.dot s w.(id)) seeds;
              verdict = (if anchored.(id) then Accept else Reject);
            });
        round =
          (fun ~round ~id state ~inbox ->
            match round with
            | 1 ->
                let payload = Array.to_list state.parities in
                ( state,
                  List.map (fun v -> (v, payload)) (Graph.neighbours g id) )
            | 2 ->
                (* timeout-as-reject: silence from any neighbour is as
                   damning as a mismatching parity *)
                let senders = List.sort_uniq compare (List.map fst inbox) in
                if List.length senders <> List.length (Graph.neighbours g id)
                then state.verdict <- Runtime.Reject;
                List.iter
                  (fun (_, payload) ->
                    List.iteri
                      (fun i b ->
                        if b <> state.parities.(i) then
                          state.verdict <- Runtime.Reject)
                      payload)
                  inbox;
                (state, [])
            | _ -> (state, []));
        finish = (fun ~id:_ state -> state.verdict);
      }
    in
    Runtime.run ?faults g ~rounds:2 program

let costs params =
  {
    Report.local_proof_qubits = params.n;
    total_proof_qubits = (params.r + 1) * params.n;
    local_message_qubits = 2 * params.parity_checks;
    total_message_qubits = 2 * params.r * params.parity_checks;
    rounds = 1;
  }
