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
  (* materialize the tree as its own network; every node's children
     in sender order, the order the runtime delivers an inbox in *)
  let size = Spanning_tree.size tr in
  let parent = Array.init size (Spanning_tree.parent tr) in
  let tree_g = Graph.create size in
  let children = Array.make size [] in
  Array.iteri
    (fun v -> function
      | Some p ->
          Graph.add_edge tree_g v p;
          children.(p) <- v :: children.(p)
      | None -> ())
    parent;
  let children = Array.map List.rev children in
  let child_count = Array.map List.length children in
  let root = Spanning_tree.root tr in
  let role =
    Array.init size (fun v ->
        match Spanning_tree.terminal_of tr v with
        | Some i when v <> root -> Leaf states.(i)
        | Some _ -> Root states.(0)
        | None -> Internal (internal_state v))
  in
  (* A node's test on its own register and its children's, in sender
     order: the permutation test over all of them, or (FGNP21
     ablation) the SWAP test against one child. *)
  let perm_test own regs =
    Sim.perm_accept ([| own |] :: List.map (fun reg -> [| reg |]) regs)
  in
  let swap_test own reg = Sim.swap_accept [| own |] [| reg |] in
  let use_permutation_test = params.Eq_tree.use_permutation_test in
  (* Every testing node's inbox in a noise-free run — each child's own
     state — and the values of its test on that inbox: the
     permutation test's one value, or one SWAP value per child. *)
  let noise_free =
    Array.init size (fun v ->
        match (role.(v), children.(v)) with
        | (Root own | Internal own), _ :: _ ->
            let inbox =
              List.map
                (fun u ->
                  match role.(u) with Leaf s | Root s | Internal s -> (u, s))
                children.(v)
            in
            let regs = List.map snd inbox in
            let values =
              if use_permutation_test then [| perm_test own regs |]
              else Array.of_list (List.map (swap_test own) regs)
            in
            Some (inbox, values)
        | _ -> None)
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
              (* the prepared values when exactly the expected senders
                 delivered their registers untouched; noise hands over
                 fresh vectors, drops and duplicates change the inbox *)
              let prepared =
                match noise_free.(id) with
                | Some (expected, values)
                  when List.equal
                         (fun (u, a) (w, b) -> u = w && a == b)
                         expected inbox ->
                    Some values
                | _ -> None
              in
              (match (state.kept, inbox) with
              | Some own, _ :: _ ->
                  let p =
                    if use_permutation_test then
                      match prepared with
                      | Some values -> values.(0)
                      | None -> perm_test own (List.map snd inbox)
                    else begin
                      (* FGNP21 ablation: uniformly random child *)
                      let i = Random.State.int st (List.length inbox) in
                      match prepared with
                      | Some values -> values.(i)
                      | None -> swap_test own (snd (List.nth inbox i))
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
