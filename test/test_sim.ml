(* Differential tests for the acceptance engines: the transfer-matrix
   path DP and tree DP against brute-force coin enumeration, and the
   product-proof engine against the exact state-vector simulator. *)

open Qdp_linalg
open Qdp_commcc
open Qdp_core

let rng = Random.State.make [| 0x51b |]

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let gaussian st =
  let u1 = Float.max 1e-12 (Random.State.float st 1.) in
  let u2 = Random.State.float st 1. in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

let random_real_unit st n =
  Vec.normalize (Vec.init n (fun _ -> Cx.re (gaussian st)))

let random_complex_unit st n =
  Vec.normalize
    (Vec.init n (fun _ -> { Complex.re = gaussian st; im = gaussian st }))

(* The list-based permutation-test formula: every call enumerates the
   k! permutations, inverts each, and folds boxed [Cx] products.  The
   table-driven [Sim.perm_accept] must agree with it bit for bit. *)
let perm_accept_reference regs =
  let arr = Array.of_list regs in
  let k = Array.length arr in
  if k = 1 then 1.
  else begin
    let overlaps =
      Array.init k (fun i ->
          Array.init k (fun j -> Oneway.bundle_overlap arr.(i) arr.(j)))
    in
    let perms = Qdp_quantum.Symmetric.permutations k in
    let acc = ref Cx.zero in
    List.iter
      (fun pi ->
        let inv = Qdp_quantum.Symmetric.inverse pi in
        let prod = ref Cx.one in
        for l = 0 to k - 1 do
          prod := Cx.mul !prod overlaps.(l).(inv.(l))
        done;
        acc := Cx.add !acc !prod)
      perms;
    (Cx.scale (1. /. float_of_int (List.length perms)) !acc).Complex.re
  end

(* Random complex registers of one or three factors for every
   k = 1..8 (cached tables up to 7, built per call at 8); a third of
   the registers repeat the first, so exact overlaps of 1 occur. *)
let prop_perm_accept_bit_identical =
  QCheck.Test.make ~name:"perm_accept bit-identical to the list formula"
    ~count:4 QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed; 0x9e7 |] in
      List.for_all
        (fun k ->
          List.for_all
            (fun factors ->
              let dim = 2 + Random.State.int st 3 in
              let first =
                Array.init factors (fun _ -> random_complex_unit st dim)
              in
              let regs =
                first
                :: List.init (k - 1) (fun _ ->
                       if Random.State.int st 3 = 0 then first
                       else
                         Array.init factors (fun _ ->
                             random_complex_unit st dim))
              in
              Int64.equal
                (Int64.bits_of_float (Sim.perm_accept regs))
                (Int64.bits_of_float (perm_accept_reference regs)))
            [ 1; 3 ])
        (List.init 8 (fun i -> i + 1)))

(* Brute force: enumerate all coin vectors, multiply conditional test
   probabilities. *)
let brute_force_path (inst : Sim.path_instance) =
  let r = inst.Sim.length in
  if r = 1 then inst.Sim.left_accept *. inst.Sim.final_accept inst.Sim.left_send
  else begin
    let total = ref 0. in
    let ncoins = r - 1 in
    for coins = 0 to (1 lsl ncoins) - 1 do
      let coin j = (coins lsr (j - 1)) land 1 in
      let kept j =
        let a, b = inst.Sim.pairs.(j - 1) in
        if coin j = 0 then a else b
      in
      let sent j =
        let a, b = inst.Sim.pairs.(j - 1) in
        if coin j = 0 then b else a
      in
      let p = ref inst.Sim.left_accept in
      for j = 1 to r - 1 do
        let arriving = if j = 1 then inst.Sim.left_send else sent (j - 1) in
        p := !p *. Sim.swap_accept arriving (kept j)
      done;
      p := !p *. inst.Sim.final_accept (sent (r - 1));
      total := !total +. !p
    done;
    !total /. float_of_int (1 lsl ncoins)
  end

let random_instance st r dim =
  let reg () = [| random_real_unit st dim |] in
  let target = random_real_unit st dim in
  {
    Sim.length = r;
    left_accept = 0.5 +. Random.State.float st 0.5;
    left_send = reg ();
    pairs = Array.init (r - 1) (fun _ -> (reg (), reg ()));
    final_accept = (fun reg -> Cx.norm2 (Vec.dot target reg.(0)));
  }

let test_path_dp_vs_brute_force () =
  for r = 1 to 8 do
    for trial = 0 to 2 do
      let st = Random.State.make [| r; trial; 0xd1ff |] in
      let inst = random_instance st r 4 in
      check_float ~eps:1e-10
        (Printf.sprintf "r=%d trial=%d" r trial)
        (brute_force_path inst) (Sim.path_accept inst)
    done
  done

let test_path_honest_accepts () =
  let s = random_real_unit rng 8 in
  let inst =
    Sim.two_state_chain ~r:5 ~left:s ~right:s
      ~final:(fun reg -> Cx.norm2 (Vec.dot s reg.(0)))
      Strategy.All_left
  in
  check_float ~eps:1e-12 "honest chain accepts" 1. (Sim.path_accept inst)

let test_swap_accept_bundles () =
  let a = random_real_unit rng 4 and b = random_real_unit rng 4 in
  let c = random_real_unit rng 4 and d = random_real_unit rng 4 in
  (* joint swap on a 2-register bundle: overlap is the product *)
  let ov = Cx.mul (Vec.dot a c) (Vec.dot b d) in
  check_float ~eps:1e-10 "bundle swap accept"
    ((1. +. Cx.norm2 ov) /. 2.)
    (Sim.swap_accept [| a; b |] [| c; d |])

let test_perm_accept_two_is_swap () =
  let a = random_real_unit rng 4 and b = random_real_unit rng 4 in
  check_float ~eps:1e-10 "k=2 permutation = swap"
    (Sim.swap_accept [| a |] [| b |])
    (Sim.perm_accept [ [| a |]; [| b |] ])

let test_perm_accept_identical () =
  let a = random_real_unit rng 4 in
  check_float ~eps:1e-10 "identical registers accept" 1.
    (Sim.perm_accept [ [| a |]; [| a |]; [| a |] ])

(* --- tree DP vs brute force on small trees --- *)

let brute_force_tree st (inst : Sim.tree_instance) =
  (* enumerate all coins of internal nodes *)
  ignore st;
  let tr = inst.Sim.tree in
  let module T = Qdp_network.Spanning_tree in
  let internal =
    List.filter
      (fun v -> T.terminal_of tr v = None)
      (List.init (T.size tr) (fun v -> v))
  in
  let n_int = List.length internal in
  let idx_of v =
    let rec go i = function
      | [] -> raise Not_found
      | w :: ws -> if w = v then i else go (i + 1) ws
    in
    go 0 internal
  in
  let total = ref 0. in
  for coins = 0 to (1 lsl n_int) - 1 do
    let coin v = (coins lsr idx_of v) land 1 in
    let sent v =
      if T.terminal_of tr v <> None then inst.Sim.leaf_state v
      else begin
        let a, b = inst.Sim.internal_pair v in
        if coin v = 0 then b else a
      end
    in
    let kept v =
      let a, b = inst.Sim.internal_pair v in
      if coin v = 0 then a else b
    in
    let p = ref 1. in
    for v = 0 to T.size tr - 1 do
      let children = T.children tr v in
      if children <> [] then begin
        let sents = List.map sent children in
        let own =
          if v = T.root tr then inst.Sim.root_state else kept v
        in
        let test =
          if inst.Sim.use_permutation_test then Sim.perm_accept (own :: sents)
          else
            (* FGNP21 variant: SWAP test against a uniformly random
               child, averaged analytically *)
            List.fold_left (fun acc s -> acc +. Sim.swap_accept own s) 0. sents
            /. float_of_int (List.length sents)
        in
        p := !p *. test
      end
    done;
    total := !total +. !p
  done;
  !total /. float_of_int (1 lsl n_int)

let test_tree_dp_vs_brute_force () =
  let module T = Qdp_network.Spanning_tree in
  let g = Qdp_network.Graph.balanced_tree ~arity:2 ~depth:2 in
  (* terminals: root and the four depth-2 leaves: 3, 4, 5, 6 *)
  let tr = T.build_rooted_at g ~terminals:[ 0; 3; 4; 5; 6 ] ~root_terminal:0 in
  for trial = 0 to 2 do
    let st = Random.State.make [| trial; 0x7ee |] in
    let states = Array.init (T.size tr) (fun _ -> [| random_real_unit st 4 |]) in
    let pair_states =
      Array.init (T.size tr) (fun _ ->
          ([| random_real_unit st 4 |], [| random_real_unit st 4 |]))
    in
    let inst =
      {
        Sim.tree = tr;
        root_state = [| random_real_unit st 4 |];
        leaf_state = (fun v -> states.(v));
        internal_pair = (fun v -> pair_states.(v));
        use_permutation_test = true;
      }
    in
    let st2 = Random.State.make [| trial |] in
    check_float ~eps:1e-10
      (Printf.sprintf "tree trial %d" trial)
      (brute_force_tree st2 inst)
      (Sim.tree_accept st2 inst)
  done

let test_tree_dp_vs_brute_force_random_graphs () =
  let module T = Qdp_network.Spanning_tree in
  for seed = 0 to 4 do
    let st = Random.State.make [| seed; 0x9a3 |] in
    let g = Qdp_network.Graph.random_connected st ~n:10 ~extra_edges:(seed mod 4) in
    let terminals = [ 0; 3; 6; 9 ] in
    let tr = T.build g ~terminals in
    let states = Array.init (T.size tr) (fun _ -> [| random_real_unit st 4 |]) in
    let pair_states =
      Array.init (T.size tr) (fun _ ->
          ([| random_real_unit st 4 |], [| random_real_unit st 4 |]))
    in
    let inst =
      {
        Sim.tree = tr;
        root_state = [| random_real_unit st 4 |];
        leaf_state = (fun v -> states.(v));
        internal_pair = (fun v -> pair_states.(v));
        use_permutation_test = seed mod 2 = 0;
      }
    in
    let st2 = Random.State.make [| seed |] in
    check_float ~eps:1e-10
      (Printf.sprintf "random graph seed %d" seed)
      (brute_force_tree st2 inst)
      (Sim.tree_accept st2 inst)
  done

(* --- exact state-vector simulator agreement --- *)

let test_exact_matches_sim_product_proofs () =
  let cfg = { Exact.r = 4; qubits = 1 } in
  for trial = 0 to 4 do
    let st = Random.State.make [| trial; 0xe5a |] in
    let x_state = random_real_unit st 2 in
    let y_state = random_real_unit st 2 in
    (* arbitrary product proof with distinct pair halves *)
    let pairs =
      Array.init 3 (fun _ -> (random_real_unit st 2, random_real_unit st 2))
    in
    let exact =
      Exact.accept_prob cfg ~x_state ~y_state
        ~proof:(Exact.product_proof cfg pairs)
    in
    let sim =
      Sim.path_accept
        {
          Sim.length = 4;
          left_accept = 1.0;
          left_send = [| x_state |];
          pairs = Array.map (fun (a, b) -> ([| a |], [| b |])) pairs;
          final_accept = (fun reg -> Cx.norm2 (Vec.dot y_state reg.(0)));
        }
    in
    check_float ~eps:1e-9 (Printf.sprintf "trial %d" trial) exact sim
  done

let test_exact_honest_complete () =
  let cfg = { Exact.r = 5; qubits = 1 } in
  let s = Exact.toy_state ~qubits:1 4 in
  check_float ~eps:1e-9 "honest proof accepted" 1.
    (Exact.accept_prob cfg ~x_state:s ~y_state:s ~proof:(Exact.honest_proof cfg s))

let test_entangled_beats_or_matches_product () =
  let cfg = { Exact.r = 3; qubits = 1 } in
  let x_state = Exact.toy_state ~qubits:1 1 in
  let y_state = Exact.toy_state ~qubits:1 2 in
  let product = Exact.best_product_attack cfg ~x_state ~y_state in
  let entangled, opt_proof = Exact.optimal_entangled_attack cfg ~x_state ~y_state in
  Alcotest.(check bool) "optimal >= best product" true
    (entangled >= product -. 1e-9);
  (* the optimal proof achieves its eigenvalue *)
  let achieved =
    Exact.accept_prob cfg ~x_state ~y_state ~proof:(Vec.normalize opt_proof)
  in
  check_float ~eps:1e-7 "eigenvector achieves eigenvalue" entangled achieved

let test_entangled_attack_below_soundness_bound () =
  (* the exact optimum must respect Lemma 17's bound *)
  for k = 0 to 2 do
    let cfg = { Exact.r = 3 + k; qubits = 1 } in
    let x_state = Exact.toy_state ~qubits:1 5 in
    let y_state = Exact.toy_state ~qubits:1 11 in
    let entangled, _ = Exact.optimal_entangled_attack cfg ~x_state ~y_state in
    let bound = Eq_path.soundness_bound_single ~r:cfg.Exact.r in
    Alcotest.(check bool)
      (Printf.sprintf "r=%d: %.6f <= %.6f" cfg.Exact.r entangled bound)
      true
      (entangled <= bound +. 1e-9)
  done

(* --- down-tree engine --- *)

let test_down_tree_honest () =
  let module T = Qdp_network.Spanning_tree in
  let g = Qdp_network.Graph.path 3 in
  let tr = T.build_rooted_at g ~terminals:[ 0; 3 ] ~root_terminal:0 in
  let msg = [| random_real_unit rng 4 |] in
  let inst =
    {
      Sim.dtree = tr;
      root_message = msg;
      internal_registers =
        (fun v ->
          let delta = List.length (T.children tr v) in
          Array.make (delta + 1) msg);
      leaf_accept = (fun _ recv -> Cx.norm2 (Oneway.bundle_overlap recv msg));
    }
  in
  check_float ~eps:1e-10 "honest down-tree accepts" 1.
    (Sim.down_tree_accept inst)

let test_down_tree_vs_path () =
  (* on a path, the down-tree engine with per-node registers must agree
     with a direct coin enumeration; check a cheating prover *)
  let module T = Qdp_network.Spanning_tree in
  let g = Qdp_network.Graph.path 2 in
  let tr = T.build_rooted_at g ~terminals:[ 0; 2 ] ~root_terminal:0 in
  let st = Random.State.make [| 0xdd |] in
  let msg = [| random_real_unit st 4 |] in
  let bad = [| random_real_unit st 4 |] in
  let target = random_real_unit st 4 in
  let inst =
    {
      Sim.dtree = tr;
      root_message = msg;
      internal_registers = (fun _ -> [| msg; bad |]);
      leaf_accept = (fun _ recv -> Cx.norm2 (Vec.dot target recv.(0)));
    }
  in
  (* one internal node with 1 child: permutations of 2 registers: keep
     one, forward the other; SWAP test kept vs received-from-root *)
  let swap_with r = Sim.swap_accept r msg in
  let bob r = Cx.norm2 (Vec.dot target r.(0)) in
  let expected =
    0.5 *. ((swap_with [| msg; bad |].(1) *. bob msg)
           +. (swap_with msg *. bob bad))
  in
  check_float ~eps:1e-10 "matches manual enumeration" expected
    (Sim.down_tree_accept inst)

let test_repeat_accept () =
  check_float ~eps:1e-12 "p^k" 0.25 (Sim.repeat_accept 2 0.5);
  check_float ~eps:1e-12 "k=0" 1. (Sim.repeat_accept 0 0.3)

let () =
  Alcotest.run "sim"
    [
      ( "path",
        [
          Alcotest.test_case "DP vs brute force" `Quick test_path_dp_vs_brute_force;
          Alcotest.test_case "honest accepts" `Quick test_path_honest_accepts;
          Alcotest.test_case "bundle swap accept" `Quick test_swap_accept_bundles;
          Alcotest.test_case "perm k=2 = swap" `Quick test_perm_accept_two_is_swap;
          Alcotest.test_case "perm identical" `Quick test_perm_accept_identical;
          QCheck_alcotest.to_alcotest prop_perm_accept_bit_identical;
        ] );
      ( "tree",
        [
          Alcotest.test_case "DP vs brute force" `Quick test_tree_dp_vs_brute_force;
          Alcotest.test_case "DP vs brute force (random graphs)" `Quick
            test_tree_dp_vs_brute_force_random_graphs;
        ] );
      ( "exact",
        [
          Alcotest.test_case "matches product engine" `Quick
            test_exact_matches_sim_product_proofs;
          Alcotest.test_case "honest complete" `Quick test_exact_honest_complete;
          Alcotest.test_case "entangled optimum" `Quick
            test_entangled_beats_or_matches_product;
          Alcotest.test_case "respects Lemma 17" `Quick
            test_entangled_attack_below_soundness_bound;
        ] );
      ( "down_tree",
        [
          Alcotest.test_case "honest accepts" `Quick test_down_tree_honest;
          Alcotest.test_case "manual enumeration" `Quick test_down_tree_vs_path;
          Alcotest.test_case "repeat" `Quick test_repeat_accept;
        ] );
    ]
