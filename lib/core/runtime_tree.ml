open Qdp_linalg
open Qdp_fingerprint
open Qdp_network

type node_state = {
  outgoing : Vec.t option;  (** register forwarded to the parent *)
  kept : Vec.t option;  (** register used in the local test, if any *)
  mutable verdict : Runtime.verdict;
}

(* What the prover hands each tree node, fixed per instance. *)
type role =
  | Leaf of Vec.t  (** a terminal leaf: sends its own fingerprint *)
  | Root of Vec.t  (** the root terminal: tests its own fingerprint *)
  | Internal of Vec.t  (** a non-terminal: the prover's pair, one state *)

(* Payloads are bare fingerprint registers, as in the path backend. *)
let injector env = Fault_env.injector ~corrupt:(Fault_env.apply_qnoise env) env

let prepare params g ~terminals ~inputs strategy =
  let fp =
    Fingerprint.standard ~seed:params.Eq_tree.seed ~n:params.Eq_tree.n
  in
  let states = Array.map (Fingerprint.state fp) inputs in
  let tr = Eq_tree.tree_of g ~terminals in
  let height = max 1 (Spanning_tree.height tr) in
  let internal_state v =
    match strategy with
    | Eq_tree.Honest -> states.(0)
    | Eq_tree.Constant z -> Fingerprint.state fp z
    | Eq_tree.Depth_interpolate target ->
        States.geodesic states.(0) states.(target)
          (float_of_int (Spanning_tree.depth tr v) /. float_of_int height)
  in
  (* materialize the tree as its own network *)
  let size = Spanning_tree.size tr in
  let parent = Array.init size (Spanning_tree.parent tr) in
  let tree_g = Graph.create size in
  let child_count = Array.make size 0 in
  Array.iteri
    (fun v -> function
      | Some p ->
          Graph.add_edge tree_g v p;
          child_count.(p) <- child_count.(p) + 1
      | None -> ())
    parent;
  let root = Spanning_tree.root tr in
  let role =
    Array.init size (fun v ->
        match Spanning_tree.terminal_of tr v with
        | Some i when v <> root -> Leaf states.(i)
        | Some _ -> Root states.(0)
        | None -> Internal (internal_state v))
  in
  let program st =
    {
      Runtime.init =
        (fun v ->
          match role.(v) with
          | Leaf s -> { outgoing = Some s; kept = None; verdict = Accept }
          | Root s -> { outgoing = None; kept = Some s; verdict = Accept }
          | Internal s ->
              (* the local coin symmetrizing the prover's pair; both
                 halves are the same state, so it decides nothing here
                 but is still drawn from the verifier's coins *)
              ignore (Random.State.bool st : bool);
              { outgoing = Some s; kept = Some s; verdict = Accept });
      round =
        (fun ~round ~id state ~inbox ->
          match round with
          | 1 -> (
              match (state.outgoing, parent.(id)) with
              | Some reg, Some p -> (state, [ (p, reg) ])
              | _ -> (state, []))
          | 2 ->
              (* timeout-as-reject: every tree child must report *)
              let senders =
                List.length (List.sort_uniq compare (List.map fst inbox))
              in
              if senders < child_count.(id) then
                state.verdict <- Runtime.Reject;
              (match (state.kept, inbox) with
              | Some own, _ :: _ ->
                  let sents = List.map (fun (_, reg) -> [| reg |]) inbox in
                  let p =
                    if params.Eq_tree.use_permutation_test then
                      Sim.perm_accept ([| own |] :: sents)
                    else begin
                      (* FGNP21 ablation: uniformly random child *)
                      let arr = Array.of_list sents in
                      let pick = arr.(Random.State.int st (Array.length arr)) in
                      Sim.swap_accept [| own |] pick
                    end
                  in
                  if Random.State.float st 1. > p then
                    state.verdict <- Runtime.Reject;
                  (state, [])
              | _ -> (state, []));
          | _ -> (state, []));
      finish = (fun ~id:_ state -> state.verdict);
    }
  in
  fun ?faults st ->
    Runtime.run ?faults:(Option.map injector faults) tree_g ~rounds:2
      (program st)

let run_once st params g ~terminals ~inputs strategy =
  Runtime.accepted (prepare params g ~terminals ~inputs strategy st)

let run_faulty st env params g ~terminals ~inputs strategy =
  prepare params g ~terminals ~inputs strategy ~faults:env st

let estimate_acceptance st ~trials params g ~terminals ~inputs strategy =
  let run = prepare params g ~terminals ~inputs strategy in
  Runtime.estimate_acceptance ~st ~trials (fun st ->
      fst (Runtime.accepted (run st)))
