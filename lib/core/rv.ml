open Qdp_codes
open Qdp_network

type params = { n : int; seed : int; repetitions : int }

let make ?repetitions ~seed ~n ~r () =
  let repetitions =
    match repetitions with
    | Some k -> k
    | None -> Eq_path.paper_repetitions ~r
  in
  { n; seed; repetitions }

let rv_value ~inputs ~i ~j =
  let t = Array.length inputs in
  let count = ref 0 in
  Array.iteri
    (fun k xk ->
      if k <> i && Gf2.compare_big_endian inputs.(i) xk >= 0 then incr count)
    inputs;
  !count = t - j

type prover = Honest_directions | Claim of bool array

let path_length tr k =
  let leaf = (Spanning_tree.terminal_leaves tr).(k) in
  max 1 (Spanning_tree.depth tr leaf)

let gt_params params r =
  { Gt.n = params.n; r; seed = params.seed; repetitions = params.repetitions }

(* Acceptance of the comparison protocol on the path to terminal k,
   for a claimed direction, single round.  An honest claim runs the
   honest prover; a lying claim runs the best known attack. *)
let path_accept_for_claim params tr ~inputs ~i ~k ~claim_ge =
  let gp = gt_params params (path_length tr k) in
  let truth = Gf2.compare_big_endian inputs.(i) inputs.(k) >= 0 in
  match (claim_ge, truth) with
  | true, true -> Gt.variant_honest_accept gp Gt.Ge inputs.(i) inputs.(k)
  | false, false -> Gt.variant_honest_accept gp Gt.Lt inputs.(i) inputs.(k)
  | true, false -> Gt.variant_best_attack gp Gt.Ge inputs.(i) inputs.(k)
  | false, true -> Gt.variant_best_attack gp Gt.Lt inputs.(i) inputs.(k)

let truth_directions ~inputs ~i =
  Array.mapi
    (fun k xk -> k <> i && Gf2.compare_big_endian inputs.(i) xk >= 0)
    inputs

(* Definition 9's count t - j + 1 includes the (trivially true) self
   comparison GT>=(x_i, x_i); over k <> i the target is t - j. *)
let count_ge ~i dirs =
  let c = ref 0 in
  Array.iteri (fun k b -> if k <> i && b then incr c) dirs;
  !c

let accept params g ~terminals ~inputs ~i ~j prover =
  let t = Array.length inputs in
  let tr = Spanning_tree.build_rooted_at g ~terminals ~root_terminal:i in
  let dirs =
    match prover with
    | Honest_directions -> truth_directions ~inputs ~i
    | Claim d -> d
  in
  if count_ge ~i dirs <> t - j then 0.
  else begin
    let acc = ref 1. in
    for k = 0 to t - 1 do
      if k <> i then begin
        let p =
          path_accept_for_claim params tr ~inputs ~i ~k ~claim_ge:dirs.(k)
        in
        acc := !acc *. Sim.repeat_accept params.repetitions p
      end
    done;
    !acc
  end

let honest_accept params g ~terminals ~inputs ~i ~j =
  accept params g ~terminals ~inputs ~i ~j Honest_directions

let best_attack_accept params g ~terminals ~inputs ~i ~j =
  let t = Array.length inputs in
  Qdp_log.attack_search ~proto:"rv"
    ~attrs:(fun () ->
      [ ("n", Qdp_obs.Trace.Int params.n);
        ("t", Qdp_obs.Trace.Int t);
        ("i", Qdp_obs.Trace.Int i);
        ("j", Qdp_obs.Trace.Int j) ])
  @@ fun () ->
  let tr = Spanning_tree.build_rooted_at g ~terminals ~root_terminal:i in
  let truth = truth_directions ~inputs ~i in
  let c = count_ge ~i truth and target = t - j in
  if c = target then begin
    (* yes instance (or a no instance where the honest count already
       matches — impossible by definition): honest play *)
    let p = honest_accept params g ~terminals ~inputs ~i ~j in
    Qdp_log.attack_candidate ~proto:"rv" "honest" p;
    (p, "honest")
  end
  else begin
    (* flip the cheapest-to-lie directions to fix the count *)
    let want_ge = c < target in
    let flips_needed = abs (target - c) in
    (* score the flippable directions as one grid, then log and
       accumulate in the original k order *)
    let flippable =
      Array.of_list
        (List.filter
           (fun k -> k <> i && truth.(k) <> want_ge)
           (List.init t (fun k -> k)))
    in
    let scores =
      Qdp_dist.map_shards ~label:"attack/rv" ~n:(Array.length flippable)
        (fun idx ->
          Sim.repeat_accept params.repetitions
            (path_accept_for_claim params tr ~inputs ~i ~k:flippable.(idx)
               ~claim_ge:want_ge))
    in
    let candidates = ref [] in
    Array.iteri
      (fun idx k ->
        let p = scores.(idx) in
        Qdp_log.attack_candidate ~proto:"rv"
          (Printf.sprintf "flip-%d->%s" k (if want_ge then ">=" else "<"))
          p;
        candidates := (p, k) :: !candidates)
      flippable;
    let sorted =
      List.sort (fun (p1, _) (p2, _) -> Float.compare p2 p1) !candidates
    in
    if List.length sorted < flips_needed then (0., "count unfixable")
    else begin
      let chosen = List.filteri (fun idx _ -> idx < flips_needed) sorted in
      let accept_prob =
        List.fold_left (fun acc (p, _) -> acc *. p) 1. chosen
      in
      let desc =
        String.concat ","
          (List.map (fun (_, k) -> string_of_int k) chosen)
      in
      (accept_prob, Printf.sprintf "flip{%s}->%s" desc
         (if want_ge then ">=" else "<"))
    end
  end

let costs params tr ~t =
  let height = max 1 (Spanning_tree.height tr) in
  let g = Gt.costs (gt_params params height) in
  let dir_bits = t - 1 in
  {
    Report.local_proof_qubits =
      ((t - 1) * g.Report.local_proof_qubits) + dir_bits;
    total_proof_qubits =
      ((t - 1) * g.Report.total_proof_qubits) + (Spanning_tree.size tr * dir_bits);
    local_message_qubits = (t - 1) * g.Report.local_message_qubits;
    total_message_qubits = (t - 1) * g.Report.total_message_qubits;
    rounds = 1;
  }
