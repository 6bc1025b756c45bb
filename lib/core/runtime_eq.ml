open Qdp_linalg
open Qdp_fingerprint
open Qdp_network

type params = Eq_path.params = {
  n : int;
  r : int;
  seed : int;
  repetitions : int;
}

type node_state = {
  kept : Vec.t option;  (** register retained for the local SWAP test *)
  outgoing : Vec.t option;  (** register to forward right in round 1 *)
  mutable verdict : Runtime.verdict;
}

(* Payloads are bare fingerprint registers, so the environment's
   register noise is the payload corruptor. *)
let injector env = Fault_env.injector ~corrupt:(Fault_env.apply_qnoise env) env

let prepare params x y strategy =
  let fp = Fingerprint.standard ~seed:params.seed ~n:params.n in
  let hx = Fingerprint.state fp x in
  let hy_state = Fingerprint.state fp y in
  let prover_state =
    Strategy.node_state ~r:params.r ~left:hx ~right:hy_state
      ~embed:(Fingerprint.state fp) strategy
  in
  (* the prover's register at every middle node *)
  let register =
    Array.init (params.r + 1) (fun id ->
        if id = 0 || id = params.r then None else Some (prover_state id))
  in
  let bob = Fingerprint.accept_prob fp y in
  let g = Graph.path params.r in
  let program st =
    {
      Runtime.init =
        (fun id ->
          if id = 0 then { kept = None; outgoing = Some hx; verdict = Accept }
          else if id = params.r then
            { kept = None; outgoing = None; verdict = Accept }
          else begin
            (* the local coin symmetrizing the prover's pair; both
               halves are the same state, so it decides nothing here
               but is still drawn from the verifier's coins *)
            ignore (Random.State.bool st : bool);
            let reg = register.(id) in
            { kept = reg; outgoing = reg; verdict = Accept }
          end);
      round =
        (fun ~round ~id state ~inbox ->
          match round with
          | 1 -> (
              (* every node except v_r forwards its register right *)
              match state.outgoing with
              | Some reg when id < params.r -> (state, [ (id + 1, reg) ])
              | _ -> (state, []))
          | 2 when id = 0 -> (state, [])
          | 2 -> (
              (* receive from the left and test: v_r against its own
                 input, a middle node against its kept register *)
              match inbox with
              | [ (_, arriving) ] ->
                  let p =
                    match state.kept with
                    | Some kept -> Sim.swap_accept [| arriving |] [| kept |]
                    | None -> bob arriving
                  in
                  if Random.State.float st 1. > p then
                    state.verdict <- Runtime.Reject;
                  (state, [])
              | _ ->
                  state.verdict <- Runtime.Reject;
                  (state, []))
          | _ -> (state, []));
      finish = (fun ~id:_ state -> state.verdict);
    }
  in
  fun ?faults st ->
    Runtime.run ?faults:(Option.map injector faults) g ~rounds:2 (program st)
