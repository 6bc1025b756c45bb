open Qdp_codes
open Qdp_network

type prover = Honest of Gf2.t | Assignment of Gf2.t array

type node_state = {
  proof : string;  (** the node's proof string as it goes on the wire *)
  mutable verdict : Runtime.verdict;
}

(* Classical payloads: corruption flips one uniformly chosen proof
   bit in flight — the bit-flip model of noisy classical links. *)
let flip_bit st s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Random.State.int st (Bytes.length b) in
    Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
    Bytes.to_string b
  end

let prepare ~r x y prover =
  let g = Graph.path r in
  let proofs =
    match prover with
    | Honest z -> Array.make (r + 1) z
    | Assignment a ->
        if Array.length a <> r + 1 then
          invalid_arg "Runtime_dma: one proof string per node";
        a
  in
  let wire = Array.map Gf2.to_string proofs in
  let program =
    {
      Runtime.init =
        (fun id ->
          let proof = proofs.(id) in
          let verdict : Runtime.verdict =
            if id = 0 && not (Gf2.equal proof x) then Reject
            else if id = r && not (Gf2.equal proof y) then Reject
            else Accept
          in
          { proof = wire.(id); verdict });
      round =
        (fun ~round ~id state ~inbox ->
          match round with
          | 1 ->
              ( state,
                List.map (fun v -> (v, state.proof)) (Graph.neighbours g id) )
          | 2 ->
              (* timeout-as-reject: silence from any neighbour is as
                 damning as a mismatching proof *)
              let senders = List.sort_uniq compare (List.map fst inbox) in
              if List.length senders <> List.length (Graph.neighbours g id)
              then state.verdict <- Runtime.Reject;
              List.iter
                (fun (_, s) ->
                  if not (String.equal s state.proof) then
                    state.verdict <- Runtime.Reject)
                inbox;
              (state, [])
          | _ -> (state, []));
      finish = (fun ~id:_ state -> state.verdict);
    }
  in
  (* the verifier is deterministic: the closure never reads its
     [Random.State.t] *)
  fun ?faults _st ->
    Runtime.run
      ?faults:(Option.map (Fault_env.injector ~corrupt:flip_bit) faults)
      g ~rounds:2 program

let bits_per_node ~n = n
