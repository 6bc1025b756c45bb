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

(* [swap_twirl ~pairs ~width k] averages [S_s K S_s] over every subset
   [s] of the proof's register pairs: the proof space is [pairs] pairs
   of [width]-qubit registers (most significant first), and [S_s] swaps
   the two registers of each pair in [s].  [S_s] is a basis permutation
   and an involution, so each nonzero [K[a, b]] lands on
   [(s a, s b)].  This is how each node's coin, untouched after its
   controlled swap, marginalises. *)
let swap_twirl ~pairs ~width k =
  let n = Mat.rows k in
  let mask = (1 lsl width) - 1 in
  let swap_pair j p =
    let sa = ((2 * (pairs - j)) - 1) * width in
    let sb = sa - width in
    let fa = (p lsr sa) land mask and fb = (p lsr sb) land mask in
    p
    land lnot ((mask lsl sa) lor (mask lsl sb))
    lor (fb lsl sa) lor (fa lsl sb)
  in
  let kr = Mat.raw_re k and ki = Mat.raw_im k in
  let nonzero = ref [] in
  for e = (n * n) - 1 downto 0 do
    if kr.{e} <> 0. || ki.{e} <> 0. then nonzero := e :: !nonzero
  done;
  let q = Mat.create n n in
  let qr = Mat.raw_re q and qi = Mat.raw_im q in
  (* a power of two, so scaling each term is exact *)
  let w = 1. /. float_of_int (1 lsl pairs) in
  let sigma = Array.make n 0 in
  for s = 0 to (1 lsl pairs) - 1 do
    for p = 0 to n - 1 do
      let v = ref p in
      for j = 0 to pairs - 1 do
        if (s lsr j) land 1 = 1 then v := swap_pair j !v
      done;
      sigma.(p) <- !v
    done;
    List.iter
      (fun e ->
        let dst = (sigma.(e / n) * n) + sigma.(e mod n) in
        qr.{dst} <- qr.{dst} +. (w *. kr.{e});
        qi.{dst} <- qi.{dst} +. (w *. ki.{e}))
      !nonzero
  done;
  q

(* [<v|_X Pi_sym(X, R) |v>_X = (I + |v><v|) / 2] on [R]: a SWAP test
   against a fixed state, seen from the other register. *)
let swap_test_against v =
  Mat.scale (Cx.re 0.5) (Mat.add (Mat.identity (Vec.dim v)) (Mat.of_vec v))

(* Every projection acts on its own register pair and the coins
   marginalise to a swap twirl, so the acceptance form is
   [2^-(r-1) sum_s S_s K S_s] with
   [K = (I + |x><x|)/2 (x) Pi_sym^(r-2) (x) |y><y|] on the proof
   registers grouped [(R10)(R11 R20)...(R(r-1)1)]. *)
let attack_gram cfg ~x_state ~y_state =
  if cfg.r < 2 then invalid_arg "Exact.attack_gram: r >= 2";
  Qdp_obs.section "exact.attack_gram" @@ fun () ->
  let d = 1 lsl cfg.qubits in
  let sym = Symmetric.projector ~d ~k:2 in
  let k =
    Mat.tensor_list
      ((swap_test_against x_state :: List.init (cfg.r - 2) (fun _ -> sym))
      @ [ Mat.of_vec y_state ])
  in
  swap_twirl ~pairs:(cfg.r - 1) ~width:cfg.qubits k

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

(* The star's form is the same twirl with one coin:
   [K = M (x) (I + |root><root|) / 2] on [(R0, R1)], where
   [M_ab = <Pi (a (x) leaves), Pi (b (x) leaves)>] for the permutation
   test [Pi] on R0 and the leaves. *)
let star_attack_gram cfg ~root_state ~leaf_states =
  if Array.length leaf_states <> cfg.t - 1 then
    invalid_arg "Exact.star_accept_prob: need t - 1 leaf states";
  Qdp_obs.section "exact.star_attack_gram" @@ fun () ->
  let b = cfg.star_qubits in
  let d = 1 lsl b in
  let names =
    "R0" :: List.init (cfg.t - 1) (fun i -> Printf.sprintf "L%d" (i + 1))
  in
  let lay = Pure.layout (List.map (fun n -> (n, b)) names) in
  let projected =
    Array.init d (fun a ->
        Pure.project_sym
          (Pure.of_global lay
             (Vec.tensor_list (Vec.basis d a :: Array.to_list leaf_states)))
          names)
  in
  let m = Mat.init d d (fun a a' -> Pure.inner projected.(a) projected.(a')) in
  swap_twirl ~pairs:1 ~width:b (Mat.tensor m (swap_test_against root_state))

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
