(* Tests for the batched linear-operator layer and the exact acceptance
   forms: Batch.gram and Batch.apply_into against the per-column
   reference path, the fused symmetric projection against the naive
   permutation average, the quad_minor/quad_major contractions against
   the boxed quadruple loops they replaced, jobs=1 vs jobs=4
   byte-identity of every dense kernel (which never starts the domain
   pool) and of the attack Gram, and the proof-space acceptance forms
   against the per-basis-proof Gram and the scalar circuit. *)

open Qdp_linalg
open Qdp_quantum
module Exact = Qdp_core.Exact
module States = Qdp_core.States
module Par = Qdp_par

(* jobs=4 must mean four domains even on small hosts, so that a kernel
   that reached for the pool would start it. *)
let () = Par.set_oversubscribe true

let with_jobs n f =
  let old = Par.jobs () in
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs old) f

let random_batch st dim count =
  Batch.init dim count (fun _ _ ->
      Cx.make (States.gaussian st) (States.gaussian st))

let random_real_batch st dim count =
  Batch.init dim count (fun _ _ -> Cx.re (States.gaussian st))

let random_mat st rows cols =
  Mat.init rows cols (fun _ _ ->
      Cx.make (States.gaussian st) (States.gaussian st))

let naive_gram b =
  let n = Batch.count b in
  Mat.init n n (fun i j -> Vec.dot (Batch.col b i) (Batch.col b j))

let mat_close ?(eps = 1e-9) a b =
  let ok = ref (Mat.rows a = Mat.rows b && Mat.cols a = Mat.cols b) in
  if !ok then
    for i = 0 to Mat.rows a - 1 do
      for j = 0 to Mat.cols a - 1 do
        if Cx.abs (Cx.sub (Mat.get a i j) (Mat.get b i j)) > eps then
          ok := false
      done
    done;
  !ok

let mat_identical a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  && Mat.raw_re a = Mat.raw_re b
  && Mat.raw_im a = Mat.raw_im b

(* --- Batch kernels --- *)

let prop_gram_matches_naive =
  QCheck.Test.make ~name:"gram matches per-column Vec.dot" ~count:60
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, dk, nk) ->
      let dim = 1 + (dk mod 40) and n = 1 + (nk mod 10) in
      let st = Random.State.make [| seed; 0xba7c |] in
      let b =
        if seed mod 3 = 0 then random_real_batch st dim n
        else random_batch st dim n
      in
      mat_close (Batch.gram b) (naive_gram b))

let prop_apply_into_matches_apply =
  QCheck.Test.make ~name:"apply_into matches per-column Mat.apply"
    ~count:60
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, dk, nk) ->
      let dim = 1 + (dk mod 24) and n = 1 + (nk mod 8) in
      let rows = 1 + ((seed + dk) mod 24) in
      let st = Random.State.make [| seed; 0xa991 |] in
      let m = random_mat st rows dim in
      let src = random_batch st dim n in
      let dst = Batch.create rows n in
      Batch.apply_into m ~src ~dst;
      let ok = ref true in
      for c = 0 to n - 1 do
        let expect = Mat.apply m (Batch.col src c) in
        let got = Batch.col dst c in
        for g = 0 to rows - 1 do
          if Cx.abs (Cx.sub (Vec.get got g) (Vec.get expect g)) > 1e-12
          then ok := false
        done
      done;
      !ok)

(* The dense kernels run on the calling domain whatever the job
   budget: at shapes that used to clear the row-parallel cutoff at
   jobs 4, the floats match jobs 1 bit for bit and the pool never
   starts.  These cases run before anything in this executable that
   could start the pool (the attack-gram case below goes through
   Qdp_dist). *)
let check_pool_idle () =
  Alcotest.(check bool) "pool never started" false (Par.pool_started ())

let test_gram_jobs_invariant () =
  let st = Random.State.make [| 0x9e1; 7 |] in
  let b = random_batch st 256 96 in
  let g1 = with_jobs 1 (fun () -> Batch.gram b) in
  let g4 = with_jobs 4 (fun () -> Batch.gram b) in
  Alcotest.(check bool) "jobs=1 and jobs=4 byte-identical" true
    (mat_identical g1 g4);
  Alcotest.(check bool) "gram matches naive" true (mat_close g4 (naive_gram b));
  check_pool_idle ()

let test_mul_jobs_invariant () =
  let st = Random.State.make [| 0x3a7; 1 |] in
  let a = random_mat st 64 64 and b = random_mat st 64 64 in
  let m1 = with_jobs 1 (fun () -> Mat.mul a b) in
  let m4 = with_jobs 4 (fun () -> Mat.mul a b) in
  Alcotest.(check bool) "jobs=1 and jobs=4 byte-identical" true
    (mat_identical m1 m4);
  check_pool_idle ()

let test_tensor_jobs_invariant () =
  let st = Random.State.make [| 0x3a7; 2 |] in
  let a = random_mat st 16 16 and b = random_mat st 32 32 in
  let m1 = with_jobs 1 (fun () -> Mat.tensor a b) in
  let m4 = with_jobs 4 (fun () -> Mat.tensor a b) in
  Alcotest.(check bool) "jobs=1 and jobs=4 byte-identical" true
    (mat_identical m1 m4);
  check_pool_idle ()

let test_apply_into_jobs_invariant () =
  let st = Random.State.make [| 0x3a7; 3 |] in
  let m = random_mat st 64 64 and src = random_batch st 64 64 in
  let run jobs =
    with_jobs jobs (fun () ->
        let dst = Batch.create 64 64 in
        Batch.apply_into m ~src ~dst;
        dst)
  in
  let d1 = run 1 and d4 = run 4 in
  Alcotest.(check bool) "jobs=1 and jobs=4 byte-identical" true
    (Batch.raw_re d1 = Batch.raw_re d4 && Batch.raw_im d1 = Batch.raw_im d4);
  check_pool_idle ()

(* --- the fused symmetrizer --- *)

(* naive symmetric projection: average the scalar permutation unitary
   over all k! permutations, materializing each term *)
let naive_project_sym s names =
  let arr = Array.of_list names in
  let k = Array.length arr in
  let perms = Symmetric.permutations k in
  let fact = float_of_int (List.length perms) in
  let dim = Pure.dim s in
  let acc = ref (Vec.create dim) in
  List.iter
    (fun pi ->
      acc :=
        Vec.add !acc (Pure.global_vector (Pure.permute_registers s arr pi)))
    perms;
  Vec.scale (Cx.re (1. /. fact)) !acc

let prop_project_sym_fused =
  QCheck.Test.make ~name:"fused project_sym matches naive average"
    ~count:40 QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed; 0x5f1 |] in
      let lay = Pure.layout [ ("U", 1); ("V", 1); ("W", 1) ] in
      let dim = 1 lsl Pure.total_qubits lay in
      let s = Pure.of_global lay (States.random_unit st dim) in
      let names = [ "U"; "V"; "W" ] in
      let fused = Pure.global_vector (Pure.project_sym s names) in
      let naive = naive_project_sym s names in
      let ok = ref true in
      for g = 0 to dim - 1 do
        if Cx.abs (Cx.sub (Vec.get fused g) (Vec.get naive g)) > 1e-9 then
          ok := false
      done;
      !ok)

(* --- quad contractions vs the boxed quadruple loops --- *)

let naive_quad_minor g v =
  let sub = Vec.dim v in
  let n = Mat.rows g / sub in
  Mat.init n n (fun i i' ->
      let acc = ref Cx.zero in
      for j = 0 to sub - 1 do
        for j' = 0 to sub - 1 do
          acc :=
            Cx.add !acc
              (Cx.mul
                 (Cx.mul (Cx.conj (Vec.get v j))
                    (Mat.get g ((i * sub) + j) ((i' * sub) + j')))
                 (Vec.get v j'))
        done
      done;
      !acc)

let naive_quad_major g u =
  let n = Vec.dim u in
  let sub = Mat.rows g / n in
  Mat.init sub sub (fun j j' ->
      let acc = ref Cx.zero in
      for i = 0 to n - 1 do
        for i' = 0 to n - 1 do
          acc :=
            Cx.add !acc
              (Cx.mul
                 (Cx.mul (Cx.conj (Vec.get u i))
                    (Mat.get g ((i * sub) + j) ((i' * sub) + j')))
                 (Vec.get u i'))
        done
      done;
      !acc)

let prop_quad_contractions =
  QCheck.Test.make ~name:"quad_minor/quad_major match naive nests"
    ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (seed, k) ->
      let n = 2 + (k mod 3) and sub = 2 + ((k / 3) mod 3) in
      let st = Random.State.make [| seed; 0x40ad |] in
      let g = random_mat st (n * sub) (n * sub) in
      let v = States.random_unit st sub in
      let u = States.random_unit st n in
      mat_close (Mat.quad_minor g v) (naive_quad_minor g v)
      && mat_close (Mat.quad_major g u) (naive_quad_major g u))

(* --- the Exact acceptance forms --- *)

let naive_attack_gram cfg ~x_state ~y_state =
  let pdim = 1 lsl Exact.proof_qubits cfg in
  let outs =
    Array.init pdim (fun i ->
        Pure.global_vector
          (Exact.final_state cfg ~x_state ~y_state ~proof:(Vec.basis pdim i)))
  in
  Mat.init pdim pdim (fun i j -> Vec.dot outs.(i) outs.(j))

let top_eigenvalue g =
  let evals, _ = Eig.hermitian g in
  evals.(Mat.rows g - 1)

let test_exact_gram_matches_naive () =
  List.iter
    (fun (r, qubits) ->
      let cfg = { Exact.r; qubits } in
      let x_state = Exact.toy_state ~qubits 1 in
      let y_state = Exact.toy_state ~qubits 2 in
      let form = Exact.attack_gram cfg ~x_state ~y_state in
      let naive = naive_attack_gram cfg ~x_state ~y_state in
      Alcotest.(check bool)
        (Printf.sprintf "gram r=%d qubits=%d" r qubits)
        true
        (mat_close form naive);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "top eigenvalue r=%d qubits=%d" r qubits)
        (top_eigenvalue naive) (top_eigenvalue form))
    [ (2, 1); (3, 1); (2, 2) ]

let test_exact_gram_jobs_invariant () =
  let cfg = { Exact.r = 3; qubits = 1 } in
  let x_state = Exact.toy_state ~qubits:1 1 in
  let y_state = Exact.toy_state ~qubits:1 2 in
  let g1 = with_jobs 1 (fun () -> Exact.attack_gram cfg ~x_state ~y_state) in
  let g4 = with_jobs 4 (fun () -> Exact.attack_gram cfg ~x_state ~y_state) in
  Alcotest.(check bool) "attack gram byte-identical across jobs" true
    (mat_identical g1 g4)

let test_star_gram_matches_naive () =
  let cfg = { Exact.t = 3; star_qubits = 1 } in
  let root_state = Exact.toy_state ~qubits:1 1 in
  let leaf_states = Array.init 2 (fun i -> Exact.toy_state ~qubits:1 (1 + i)) in
  let pdim = 1 lsl (2 * cfg.star_qubits) in
  let outs =
    Array.init pdim (fun i ->
        Pure.global_vector
          (Exact.star_final_state cfg ~root_state ~leaf_states
             ~proof:(Vec.basis pdim i)))
  in
  let naive = Mat.init pdim pdim (fun i j -> Vec.dot outs.(i) outs.(j)) in
  let form = Exact.star_attack_gram cfg ~root_state ~leaf_states in
  Alcotest.(check bool) "star gram matches naive" true
    (mat_close form naive)

(* The acceptance form against the scalar circuit: over random complex
   inputs and proofs, [<p|Q|p>] is the acceptance probability that
   [final_state] / [star_final_state] give the same proof.  A form with
   a conjugated entry or a dropped swap pattern fails these at once. *)
let form_value g p = Vec.dot p (Mat.apply g p)

let form_matches ~eps value prob =
  Float.abs (value.Complex.re -. prob) <= eps
  && Float.abs value.Complex.im <= eps

let prop_path_form_is_accept_prob =
  QCheck.Test.make ~name:"path form <p|Q|p> = accept_prob" ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (seed, k) ->
      let r, qubits =
        List.nth [ (2, 1); (3, 1); (4, 1); (5, 1); (2, 2); (3, 2) ] (k mod 6)
      in
      let cfg = { Exact.r; qubits } in
      let st = Random.State.make [| seed; k; 0xf0a |] in
      let x_state = States.random_unit st (1 lsl qubits) in
      let y_state = States.random_unit st (1 lsl qubits) in
      let proof = States.random_unit st (1 lsl Exact.proof_qubits cfg) in
      form_matches ~eps:1e-10
        (form_value (Exact.attack_gram cfg ~x_state ~y_state) proof)
        (Exact.accept_prob cfg ~x_state ~y_state ~proof))

let prop_star_form_is_accept_prob =
  QCheck.Test.make ~name:"star form <p|Q|p> = star_accept_prob" ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (seed, k) ->
      let t = 2 + (k mod 3) and star_qubits = 1 + (k / 3 mod 2) in
      let cfg = { Exact.t; star_qubits } in
      let st = Random.State.make [| seed; k; 0x57a |] in
      let d = 1 lsl star_qubits in
      let root_state = States.random_unit st d in
      let leaf_states = Array.init (t - 1) (fun _ -> States.random_unit st d) in
      let proof = States.random_unit st (d * d) in
      form_matches ~eps:1e-10
        (form_value (Exact.star_attack_gram cfg ~root_state ~leaf_states) proof)
        (Exact.star_accept_prob cfg ~root_state ~leaf_states ~proof))

(* --- error reporting --- *)

let test_unknown_register_message () =
  let lay = Pure.layout [ ("L", 1); ("R", 1) ] in
  let s = Pure.zero lay in
  Alcotest.check_raises "names the register and the layout"
    (Invalid_argument "Pure: unknown register \"Q\" (layout has \"L\", \"R\")")
    (fun () -> ignore (Pure.apply_on s [ "Q" ] Gates.hadamard))

let () =
  Alcotest.run "batch"
    [
      ( "kernels",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_gram_matches_naive;
            prop_apply_into_matches_apply;
            prop_project_sym_fused;
            prop_quad_contractions;
          ] );
      ( "determinism",
        [
          Alcotest.test_case "gram jobs-invariant" `Quick
            test_gram_jobs_invariant;
          Alcotest.test_case "mat.mul jobs-invariant" `Quick
            test_mul_jobs_invariant;
          Alcotest.test_case "mat.tensor jobs-invariant" `Quick
            test_tensor_jobs_invariant;
          Alcotest.test_case "apply_into jobs-invariant" `Quick
            test_apply_into_jobs_invariant;
          Alcotest.test_case "attack gram jobs-invariant" `Quick
            test_exact_gram_jobs_invariant;
        ] );
      ( "exact-pipeline",
        [
          Alcotest.test_case "path gram matches naive" `Quick
            test_exact_gram_matches_naive;
          Alcotest.test_case "star gram matches naive" `Quick
            test_star_gram_matches_naive;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_path_form_is_accept_prob; prop_star_form_is_accept_prob ] );
      ( "errors",
        [
          Alcotest.test_case "unknown register" `Quick
            test_unknown_register_message;
        ] );
    ]
