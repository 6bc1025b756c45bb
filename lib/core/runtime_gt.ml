open Qdp_linalg
open Qdp_codes
open Qdp_network

type prover = { node_index : int -> int; chain : Strategy.t }

let honest x y =
  match Qdp_commcc.Problems.gt_witness x y with
  | Some i -> { node_index = (fun _ -> i); chain = Strategy.All_left }
  | None -> invalid_arg "Runtime_gt.honest: GT (x, y) = 0"

let of_prover (p : Gt.prover) =
  { node_index = (fun _ -> p.Gt.index); chain = p.Gt.eq_strategy }

type message = { idx : int; reg : Vec.t }

type node_state = {
  my_index : int;
  kept : Vec.t option;  (** register for the local SWAP test; [None] at v_0 *)
  outgoing : Vec.t option;  (** register forwarded right in round 1 *)
  mutable verdict : Runtime.verdict;
}

(* Messages pair a classical index header with a quantum register; the
   environment's register noise corrupts the register and leaves the
   header intact (header corruption is a classical fault the index
   comparison already catches deterministically). *)
let injector (env : Fault_env.t) =
  let corrupt st m = { m with reg = Fault_env.apply_qnoise env st m.reg } in
  Fault_env.injector ~corrupt env

let prepare (params : Gt.params) x y prover =
  let r = params.Gt.r in
  let g = Graph.path r in
  let index = Array.init (r + 1) prover.node_index in
  (* The prover's register at every node, built from the prefix
     fingerprints of that node's claimed index: v_0's x-prefix, v_r's
     y-prefix, chain states between.  An index outside [0, n) has no
     prefix: its node gets no register and rejects, as
     {!Gt.single_round_accept} scores such a claim 0. *)
  let register =
    Array.init (r + 1) (fun id ->
        let i = index.(id) in
        if i < 0 || i >= params.Gt.n then None
        else
          let hx, hy = Gt.prefix_states params i x y in
          Some
            (if id = 0 then hx
             else if id = r then hy
             else Strategy.node_state ~r ~left:hx ~right:hy prover.chain id))
  in
  (* Node [id]'s SWAP test in a noise-free run: what arrives is
     [v_(id-1)]'s register, so the value is fixed per instance.  Only
     for equal claimed indices: a mismatch is rejected before any test,
     and prefixes of different indices differ in dimension. *)
  let noise_free =
    Array.init (r + 1) (fun id ->
        if id = 0 || index.(id - 1) <> index.(id) then None
        else
          match (register.(id - 1), register.(id)) with
          | Some left, Some own ->
              Some (left, Sim.swap_accept [| left |] [| own |])
          | _ -> None)
  in
  let program st =
    {
      Runtime.init =
        (fun id ->
          let i = index.(id) and reg = register.(id) in
          if id = 0 then
            (* v_0's classical check: x_i must be 1 *)
            let ok = reg <> None && Gf2.get x i in
            {
              my_index = i;
              kept = None;
              outgoing = reg;
              verdict = (if ok then Accept else Reject);
            }
          else if id = r then
            (* v_r's classical check: y_i must be 0 *)
            let ok = reg <> None && not (Gf2.get y i) in
            {
              my_index = i;
              kept = reg;
              outgoing = None;
              verdict = (if ok then Accept else Reject);
            }
          else
            match reg with
            | None ->
                { my_index = i; kept = None; outgoing = None; verdict = Reject }
            | Some _ ->
                (* the local coin symmetrizing the prover's pair; both
                   halves are the same state, so it decides nothing
                   here but is still drawn from the verifier's coins *)
                ignore (Random.State.bool st : bool);
                { my_index = i; kept = reg; outgoing = reg; verdict = Accept });
      round =
        (fun ~round ~id state ~inbox ->
          match round with
          | 1 -> (
              match state.outgoing with
              | Some reg when id < r ->
                  (state, [ (id + 1, { idx = state.my_index; reg }) ])
              | _ -> (state, []))
          | 2 -> (
              match (state.kept, inbox) with
              | None, _ ->
                  (* v_0, or a node already rejecting its claimed index *)
                  (state, [])
              | Some own, [ (_, msg) ] ->
                  if msg.idx <> state.my_index then
                    (* Algorithm 7's neighbour index comparison *)
                    state.verdict <- Runtime.Reject
                  else begin
                    (* the prepared value when the register arrived
                       untouched; noise hands over a fresh vector *)
                    let p =
                      match noise_free.(id) with
                      | Some (left, p) when msg.reg == left -> p
                      | _ -> Sim.swap_accept [| msg.reg |] [| own |]
                    in
                    if Random.State.float st 1. > p then
                      state.verdict <- Runtime.Reject
                  end;
                  (state, [])
              | Some _, _ ->
                  state.verdict <- Runtime.Reject;
                  (state, []))
          | _ -> (state, []));
      finish = (fun ~id:_ state -> state.verdict);
    }
  in
  fun ?faults st ->
    Runtime.run ?faults:(Option.map injector faults) g ~rounds:2 (program st)
