open Qdp_linalg
open Qdp_quantum

type config = { r : int; qubits : int }

let proof_qubits cfg = 2 * cfg.qubits * (cfg.r - 1)

let toy_state ~qubits k =
  let dim = 1 lsl qubits in
  let st = Random.State.make [| k; qubits; 0x707 |] in
  (* real amplitudes: fingerprint-like, so the geodesic interpolation
     attack is the natural product benchmark *)
  Vec.normalize (Vec.init dim (fun _ -> Cx.re (States.gaussian st)))

let layout cfg =
  let b = cfg.qubits in
  let pairs =
    List.concat_map
      (fun j ->
        [ (Printf.sprintf "R%d0" j, b); (Printf.sprintf "R%d1" j, b) ])
      (List.init (cfg.r - 1) (fun j -> j + 1))
  in
  let coins =
    List.init (cfg.r - 1) (fun j -> (Printf.sprintf "C%d" (j + 1), 1))
  in
  Pure.layout ((("L", b) :: pairs) @ coins)

(* The pipeline is linear in the proof: build the final (unnormalized)
   global state for a given proof filling the intermediate registers. *)
let final_state cfg ~x_state ~y_state ~proof =
  let r = cfg.r in
  let lay = layout cfg in
  let coins = Vec.basis (1 lsl (r - 1)) 0 in
  let global = Vec.tensor x_state (Vec.tensor proof coins) in
  let s = ref (Pure.of_global lay global) in
  for j = 1 to r - 1 do
    let c = Printf.sprintf "C%d" j in
    s := Pure.apply_on !s [ c ] Gates.hadamard;
    s :=
      Pure.controlled_swap !s ~control:c (Printf.sprintf "R%d0" j)
        (Printf.sprintf "R%d1" j)
  done;
  (* SWAP test at node j compares the register arriving from the left
     with the kept one: pairs (L, R10), (R11, R20), ... *)
  s := Pure.project_sym !s [ "L"; "R10" ];
  for j = 1 to r - 2 do
    s :=
      Pure.project_sym !s
        [ Printf.sprintf "R%d1" j; Printf.sprintf "R%d0" (j + 1) ]
  done;
  (* v_r's POVM on the arriving register *)
  s :=
    Pure.apply_on !s
      [ Printf.sprintf "R%d1" (r - 1) ]
      (Mat.of_vec y_state);
  !s

let accept_prob cfg ~x_state ~y_state ~proof =
  if cfg.r < 2 then Cx.norm2 (Vec.dot y_state x_state)
  else Pure.norm2 (final_state cfg ~x_state ~y_state ~proof)

(* Columns of the initial batch: [pre (x) e_p (x) e_0] for every basis
   proof [p] — built directly (one nonzero row per (amplitude of pre,
   column) pair) instead of tensoring [pdim] separate globals. *)
let basis_proof_batch ~pre ~pdim ~coin_dim =
  let predim = Vec.dim pre in
  let b = Batch.create (predim * pdim * coin_dim) pdim in
  let bre = Batch.raw_re b and bim = Batch.raw_im b in
  let pr = Vec.raw_re pre and pi = Vec.raw_im pre in
  for a = 0 to predim - 1 do
    for p = 0 to pdim - 1 do
      let row = ((a * pdim) + p) * coin_dim in
      bre.{(row * pdim) + p} <- pr.(a);
      bim.{(row * pdim) + p} <- pi.(a)
    done
  done;
  b

(* One batched sweep of the circuit over all [2^proof_qubits] basis
   proofs: the per-proof passes of the scalar pipeline collapse into
   blits and batched GEMMs on a [2^total x pdim] column batch. *)
let final_state_batch cfg ~x_state ~y_state =
  let r = cfg.r in
  if r < 2 then invalid_arg "Exact.final_state_batch: r >= 2";
  let lay = layout cfg in
  let pdim = 1 lsl proof_qubits cfg in
  let init = basis_proof_batch ~pre:x_state ~pdim ~coin_dim:(1 lsl (r - 1)) in
  let s = ref (Pure.batch_of_global lay init) in
  for j = 1 to r - 1 do
    let c = Printf.sprintf "C%d" j in
    s := Pure.apply_on_batch !s [ c ] Gates.hadamard;
    s :=
      Pure.controlled_swap_batch !s ~control:c (Printf.sprintf "R%d0" j)
        (Printf.sprintf "R%d1" j)
  done;
  s := Pure.project_sym_batch !s [ "L"; "R10" ];
  for j = 1 to r - 2 do
    s :=
      Pure.project_sym_batch !s
        [ Printf.sprintf "R%d1" j; Printf.sprintf "R%d0" (j + 1) ]
  done;
  s :=
    Pure.apply_on_batch !s
      [ Printf.sprintf "R%d1" (r - 1) ]
      (Mat.of_vec y_state);
  !s

let attack_gram cfg ~x_state ~y_state =
  Batch.gram (Pure.batch_data (final_state_batch cfg ~x_state ~y_state))

let product_proof cfg pairs =
  if Array.length pairs <> cfg.r - 1 then
    invalid_arg "Exact.product_proof: need r - 1 pairs";
  let parts =
    Array.to_list pairs
    |> List.concat_map (fun (a, b) -> [ a; b ])
  in
  Vec.tensor_list parts

let honest_proof cfg state =
  product_proof cfg (Array.init (cfg.r - 1) (fun _ -> (state, state)))

let optimal_entangled_attack cfg ~x_state ~y_state =
  if cfg.r < 2 then (Cx.norm2 (Vec.dot y_state x_state), Vec.basis 1 0)
  else begin
    let gram = attack_gram cfg ~x_state ~y_state in
    let top, opt = Eig.top_hermitian gram in
    (Float.max 0. top, opt)
  end

type star_config = { t : int; star_qubits : int }

let star_layout cfg =
  let b = cfg.star_qubits in
  let regs =
    [ ("X", b) ]
    @ List.init (cfg.t - 1) (fun i -> (Printf.sprintf "L%d" (i + 1), b))
    @ [ ("R0", b); ("R1", b); ("C", 1) ]
  in
  Pure.layout regs

let star_final_state cfg ~root_state ~leaf_states ~proof =
  if Array.length leaf_states <> cfg.t - 1 then
    invalid_arg "Exact.star_accept_prob: need t - 1 leaf states";
  let lay = star_layout cfg in
  let global =
    Vec.tensor_list
      ([ root_state ] @ Array.to_list leaf_states @ [ proof; Vec.basis 2 0 ])
  in
  let s = ref (Pure.of_global lay global) in
  s := Pure.apply_on !s [ "C" ] Gates.hadamard;
  s := Pure.controlled_swap !s ~control:"C" "R0" "R1";
  (* internal node: permutation test on its kept register and all the
     leaf registers *)
  s :=
    Pure.project_sym !s
      ("R0" :: List.init (cfg.t - 1) (fun i -> Printf.sprintf "L%d" (i + 1)));
  (* root: SWAP test between its own state and the forwarded register *)
  s := Pure.project_sym !s [ "X"; "R1" ];
  !s

let star_accept_prob cfg ~root_state ~leaf_states ~proof =
  Pure.norm2 (star_final_state cfg ~root_state ~leaf_states ~proof)

let star_final_state_batch cfg ~root_state ~leaf_states =
  if Array.length leaf_states <> cfg.t - 1 then
    invalid_arg "Exact.star_accept_prob: need t - 1 leaf states";
  let lay = star_layout cfg in
  let pdim = 1 lsl (2 * cfg.star_qubits) in
  let pre = Vec.tensor_list (root_state :: Array.to_list leaf_states) in
  let init = basis_proof_batch ~pre ~pdim ~coin_dim:2 in
  let s = ref (Pure.batch_of_global lay init) in
  s := Pure.apply_on_batch !s [ "C" ] Gates.hadamard;
  s := Pure.controlled_swap_batch !s ~control:"C" "R0" "R1";
  s :=
    Pure.project_sym_batch !s
      ("R0" :: List.init (cfg.t - 1) (fun i -> Printf.sprintf "L%d" (i + 1)));
  s := Pure.project_sym_batch !s [ "X"; "R1" ];
  !s

let star_attack_gram cfg ~root_state ~leaf_states =
  Batch.gram
    (Pure.batch_data (star_final_state_batch cfg ~root_state ~leaf_states))

let optimal_entangled_star_attack cfg ~root_state ~leaf_states =
  let gram = star_attack_gram cfg ~root_state ~leaf_states in
  let top, opt = Eig.top_hermitian gram in
  (Float.max 0. top, opt)

let optimal_split_attack st cfg ~x_state ~y_state ~cut_qubits ~sweeps =
  let pq = proof_qubits cfg in
  if cut_qubits <= 0 || cut_qubits >= pq then
    invalid_arg "Exact.optimal_split_attack: cut inside the proof";
  if cfg.r < 2 then Cx.norm2 (Vec.dot y_state x_state)
  else begin
    let d1 = 1 lsl cut_qubits and d2 = 1 lsl (pq - cut_qubits) in
    let gram = attack_gram cfg ~x_state ~y_state in
    let xi1 = ref (States.random_unit st d1) in
    let xi2 = ref (States.random_unit st d2) in
    let value = ref 0. in
    for _ = 1 to sweeps do
      (* optimize xi1 with xi2 fixed: contract the minor (second)
         factor of the acceptance form with xi2 *)
      let g1 = Mat.quad_minor gram !xi2 in
      let _, v1 = Eig.top_hermitian g1 in
      xi1 := v1;
      (* optimize xi2 with xi1 fixed: contract the major factor *)
      let g2 = Mat.quad_major gram !xi1 in
      let lambda, v2 = Eig.top_hermitian g2 in
      xi2 := v2;
      value := Float.max 0. lambda
    done;
    !value
  end

let best_product_attack cfg ~x_state ~y_state =
  if cfg.r < 2 then Cx.norm2 (Vec.dot y_state x_state)
  else begin
    let pairs =
      Array.init (cfg.r - 1) (fun i ->
          let s =
            States.geodesic x_state y_state
              (float_of_int (i + 1) /. float_of_int cfg.r)
          in
          (s, s))
    in
    accept_prob cfg ~x_state ~y_state ~proof:(product_proof cfg pairs)
  end
