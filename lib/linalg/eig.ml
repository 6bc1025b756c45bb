(* Cyclic Jacobi eigensolver.  The working representation keeps the
   matrix [a] (mutated toward diagonal form) and the accumulated
   rotation matrix [v] with eigenvectors as rows of [v] at the end. *)

let off_diagonal_norm a n =
  let s = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      s := !s +. (2. *. a.(i).(j) *. a.(i).(j))
    done
  done;
  Float.sqrt !s

let jacobi_rotate a v n p q =
  let apq = a.(p).(q) in
  if Float.abs apq > 0. then begin
    let theta = (a.(q).(q) -. a.(p).(p)) /. (2. *. apq) in
    let t =
      let sign = if theta >= 0. then 1. else -1. in
      sign /. (Float.abs theta +. Float.sqrt ((theta *. theta) +. 1.))
    in
    let c = 1. /. Float.sqrt ((t *. t) +. 1.) in
    let s = t *. c in
    let tau = s /. (1. +. c) in
    let app = a.(p).(p) and aqq = a.(q).(q) in
    a.(p).(p) <- app -. (t *. apq);
    a.(q).(q) <- aqq +. (t *. apq);
    a.(p).(q) <- 0.;
    a.(q).(p) <- 0.;
    for k = 0 to n - 1 do
      if k <> p && k <> q then begin
        let akp = a.(k).(p) and akq = a.(k).(q) in
        a.(k).(p) <- akp -. (s *. (akq +. (tau *. akp)));
        a.(p).(k) <- a.(k).(p);
        a.(k).(q) <- akq +. (s *. (akp -. (tau *. akq)));
        a.(q).(k) <- a.(k).(q)
      end
    done;
    for k = 0 to n - 1 do
      let vpk = v.(p).(k) and vqk = v.(q).(k) in
      v.(p).(k) <- vpk -. (s *. (vqk +. (tau *. vpk)));
      v.(q).(k) <- vqk +. (s *. (vpk -. (tau *. vqk)))
    done
  end

let symmetric_seconds = Qdp_obs.Metrics.histogram "kernel.eig_symmetric.seconds"
let hermitian_seconds = Qdp_obs.Metrics.histogram "kernel.eig_hermitian.seconds"

let symmetric a0 =
  Qdp_obs.Metrics.time symmetric_seconds @@ fun () ->
  let n = Array.length a0 in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Eig.symmetric: not square")
    a0;
  let a = Array.map Array.copy a0 in
  let v = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1. else 0.)) in
  let tol = 1e-13 *. Float.max 1. (off_diagonal_norm a n) in
  let max_sweeps = 100 in
  let sweep = ref 0 in
  while off_diagonal_norm a n > tol && !sweep < max_sweeps do
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        jacobi_rotate a v n p q
      done
    done
  done;
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare a.(i).(i) a.(j).(j)) order;
  let evals = Array.map (fun i -> a.(i).(i)) order in
  let evecs = Array.map (fun i -> Array.copy v.(i)) order in
  (evals, evecs)

(* Hermitian H = A + iB embeds in the real symmetric [[A, -B]; [B, A]];
   every eigenvalue of H appears twice, with real eigenvectors (u; v)
   and (-v; u) both mapping to the complex eigenvector u + iv.  We
   recover an orthonormal complex basis by greedy Gram-Schmidt over the
   embedded eigenvectors in spectral order. *)
let hermitian m =
  Qdp_obs.section "eig.hermitian" @@ fun () ->
  Qdp_obs.Metrics.time hermitian_seconds @@ fun () ->
  let n = Mat.rows m in
  if n <> Mat.cols m then invalid_arg "Eig.hermitian: not square";
  let big =
    Array.init (2 * n) (fun i ->
        Array.init (2 * n) (fun j ->
            let z i' j' = Mat.get m i' j' in
            if i < n && j < n then (z i j).Complex.re
            else if i < n then -.(z i (j - n)).Complex.im
            else if j < n then (z (i - n) j).Complex.im
            else (z (i - n) (j - n)).Complex.re))
  in
  let evals2, evecs2 = symmetric big in
  let accepted = ref [] in
  let accepted_vals = ref [] in
  let count = ref 0 in
  let k = ref 0 in
  while !count < n && !k < 2 * n do
    let row = evecs2.(!k) in
    let cand = Vec.init n (fun j -> { Complex.re = row.(j); im = row.(n + j) }) in
    let resid = Vec.copy cand in
    List.iter
      (fun u ->
        let c = Vec.dot u resid in
        Vec.axpy ~alpha:(Cx.neg c) u resid)
      !accepted;
    if Vec.norm resid > 1e-7 then begin
      accepted := !accepted @ [ Vec.normalize resid ];
      accepted_vals := !accepted_vals @ [ evals2.(!k) ];
      incr count
    end;
    incr k
  done;
  if !count < n then failwith "Eig.hermitian: failed to extract a full eigenbasis";
  let evals = Array.of_list !accepted_vals in
  let vecs = Array.of_list !accepted in
  let v = Mat.init n n (fun i j -> Vec.get vecs.(j) i) in
  (evals, v)

let eigenvalues_hermitian m = fst (hermitian m)

(* Top eigenpair by Lanczos with full reorthogonalisation.  The Krylov
   basis [q] grows by one matrix-vector product per step; the small
   tridiagonal [T_k] is solved with [symmetric] at k = 1, 2, 4, 8, ...
   (and at k = n or on breakdown), so the tridiagonal solves together
   cost at most twice the last one.  A checkpoint converges when the
   Ritz residual |beta_k s_k| is below [ritz_tol]; the Ritz vector must
   then also pass the true residual check, or [top_hermitian] falls
   back to the full Jacobi diagonalisation. *)

let top_seconds = Qdp_obs.Metrics.histogram "kernel.eig_top.seconds"
let top_fallbacks = Qdp_obs.Metrics.counter "kernel.eig_top.fallbacks"
let ritz_tol = 1e-12
let residual_tol = 1e-10

(* Generic complex entries from a private generator: a structured start
   (all-ones, say) can be orthogonal to the top eigenvector of an
   exchange-symmetric matrix, and drawing from a shared generator would
   shift the caller's later draws. *)
let start_vector n =
  let st = Random.State.make [| 0x1a2c05 |] in
  let coord () = Random.State.float st 2. -. 1. in
  Vec.normalize (Vec.init n (fun _ -> Cx.make (coord ()) (coord ())))

let tridiagonal alpha beta k =
  Array.init k (fun a ->
      Array.init k (fun b ->
          if a = b then alpha.(a)
          else if b = a + 1 then beta.(a)
          else if a = b + 1 then beta.(b)
          else 0.))

let lanczos_top m n =
  let q = Array.make n (Vec.create 0) in
  let alpha = Array.make n 0. and beta = Array.make n 0. in
  let w = Vec.create n in
  q.(0) <- start_vector n;
  let rec step j =
    Mat.apply_into m q.(j) ~dst:w;
    alpha.(j) <- (Vec.dot q.(j) w).Complex.re;
    Vec.axpy ~alpha:(Cx.re (-.alpha.(j))) q.(j) w;
    if j > 0 then Vec.axpy ~alpha:(Cx.re (-.beta.(j - 1))) q.(j - 1) w;
    (* two Gram-Schmidt passes against the whole basis *)
    for _ = 1 to 2 do
      for i = 0 to j do
        Vec.axpy ~alpha:(Cx.neg (Vec.dot q.(i) w)) q.(i) w
      done
    done;
    beta.(j) <- Vec.norm w;
    let k = j + 1 in
    let breakdown = beta.(j) <= ritz_tol in
    let last = breakdown || k = n in
    if not (last || k land (k - 1) = 0) then next j
    else begin
      let evals, evecs = symmetric (tridiagonal alpha beta k) in
      let theta = evals.(k - 1) and s = evecs.(k - 1) in
      let scale = Float.max 1. (Float.abs theta) in
      if Float.abs (beta.(j) *. s.(k - 1)) <= ritz_tol *. scale then begin
        let v = Vec.create n in
        Array.iteri (fun i si -> Vec.axpy ~alpha:(Cx.re si) q.(i) v) s;
        let v = Vec.normalize v in
        let r = Mat.apply m v in
        Vec.axpy ~alpha:(Cx.re (-.theta)) v r;
        if Vec.norm r <= residual_tol *. scale then Some (theta, v) else None
      end
      else if last then None
      else next j
    end
  and next j =
    q.(j + 1) <- Vec.scale (Cx.re (1. /. beta.(j))) w;
    step (j + 1)
  in
  step 0

let top_hermitian m =
  Qdp_obs.section "eig.top" @@ fun () ->
  Qdp_obs.Metrics.time top_seconds @@ fun () ->
  let n = Mat.rows m in
  if n <> Mat.cols m then invalid_arg "Eig.top_hermitian: not square";
  if n = 0 then invalid_arg "Eig.top_hermitian: empty matrix";
  match lanczos_top m n with
  | Some pair -> pair
  | None ->
      Qdp_obs.Metrics.incr top_fallbacks;
      let evals, v = hermitian m in
      (evals.(n - 1), Vec.init n (fun i -> Mat.get v i (n - 1)))

let func_hermitian f m =
  let evals, v = hermitian m in
  let n = Mat.rows m in
  let d =
    Mat.init n n (fun i j -> if i = j then Cx.re (f evals.(i)) else Cx.zero)
  in
  Mat.mul (Mat.mul v d) (Mat.adjoint v)

let sqrt_psd m = func_hermitian (fun x -> Float.sqrt (Float.max 0. x)) m
