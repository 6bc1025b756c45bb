(* Dense complex matrices on unboxed Bigarray storage (float64,
   C layout): one contiguous buffer per component, no per-element
   boxing and no bounds checks in the GEMM-shaped kernels (the loop
   bounds below are derived from the dimensions that size the
   buffers).  Every kernel keeps the per-cell accumulation order of
   the original float-array implementation — ascending contraction
   index, zero-skip per entry — so results are bit-identical to the
   pre-Bigarray code and across every dispatch path. *)

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Monomorphic redeclarations of the Bigarray access primitives: an
   alias of the polymorphic external would go through a generic
   closure and box every float, an order of magnitude per load.
   Pinned to [farr] these compile to direct unboxed moves. *)
external uget : farr -> int -> float = "%caml_ba_unsafe_ref_1"
external uset : farr -> int -> float -> unit = "%caml_ba_unsafe_set_1"

let fcreate n : farr =
  let a = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n in
  Bigarray.Array1.fill a 0.;
  a

type t = { rows : int; cols : int; re : farr; im : farr }

let create rows cols =
  { rows; cols; re = fcreate (rows * cols); im = fcreate (rows * cols) }

let rows m = m.rows
let cols m = m.cols

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.re.{(i * n) + i} <- 1.
  done;
  m

let get m i j = { Complex.re = m.re.{(i * m.cols) + j}; im = m.im.{(i * m.cols) + j} }

let set m i j z =
  m.re.{(i * m.cols) + j} <- z.Complex.re;
  m.im.{(i * m.cols) + j} <- z.Complex.im

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let copy m =
  let c = create m.rows m.cols in
  Bigarray.Array1.blit m.re c.re;
  Bigarray.Array1.blit m.im c.im;
  c

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.add: shape mismatch";
  let m = create a.rows a.cols in
  for k = 0 to (a.rows * a.cols) - 1 do
    uset m.re k (uget a.re k +. uget b.re k);
    uset m.im k (uget a.im k +. uget b.im k)
  done;
  m

let sub a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Mat.sub: shape mismatch";
  let m = create a.rows a.cols in
  for k = 0 to (a.rows * a.cols) - 1 do
    uset m.re k (uget a.re k -. uget b.re k);
    uset m.im k (uget a.im k -. uget b.im k)
  done;
  m

let scale z a =
  let zr = z.Complex.re and zi = z.Complex.im in
  let m = create a.rows a.cols in
  for k = 0 to (a.rows * a.cols) - 1 do
    let ar = uget a.re k and ai = uget a.im k in
    uset m.re k ((zr *. ar) -. (zi *. ai));
    uset m.im k ((zr *. ai) +. (zi *. ar))
  done;
  m

(* Float MACs: products of up to four dimensions in native ints can
   wrap negative for huge requests. *)
let macs2 a b = float_of_int a *. float_of_int b
let macs3 a b c = macs2 a b *. float_of_int c
let macs4 a b c d = macs3 a b c *. float_of_int d

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: shape mismatch";
  Qdp_obs.section "mat.mul"
    ~attrs:(fun () ->
      [ ("macs", Qdp_obs.Trace.Float (macs3 a.rows a.cols b.cols)) ])
  @@ fun () ->
  let m = create a.rows b.cols in
  let are = a.re and aim = a.im and bre = b.re and bim = b.im in
  let mre = m.re and mim = m.im in
  let acols = a.cols and bcols = b.cols in
  for i = 0 to a.rows - 1 do
    let abase = i * acols and obase = i * bcols in
    for k = 0 to acols - 1 do
      let ar = uget are (abase + k) and ai = uget aim (abase + k) in
      if ar <> 0. || ai <> 0. then begin
        let bbase = k * bcols in
        for j = 0 to bcols - 1 do
          let br = uget bre (bbase + j) and bi = uget bim (bbase + j) in
          let idx = obase + j in
          uset mre idx (uget mre idx +. (ar *. br) -. (ai *. bi));
          uset mim idx (uget mim idx +. (ar *. bi) +. (ai *. br))
        done
      end
    done
  done;
  m

let apply_into m v ~dst =
  if m.cols <> Vec.dim v then invalid_arg "Mat.apply_into: shape mismatch";
  if m.rows <> Vec.dim dst then invalid_arg "Mat.apply_into: dst dimension";
  let vr = Vec.raw_re v and vi = Vec.raw_im v in
  let outr = Vec.raw_re dst and outi = Vec.raw_im dst in
  let mre = m.re and mim = m.im in
  for i = 0 to m.rows - 1 do
    let sr = ref 0. and si = ref 0. in
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      let ar = uget mre (base + j) and ai = uget mim (base + j) in
      sr := !sr +. (ar *. Array.unsafe_get vr j) -. (ai *. Array.unsafe_get vi j);
      si := !si +. (ar *. Array.unsafe_get vi j) +. (ai *. Array.unsafe_get vr j)
    done;
    outr.(i) <- !sr;
    outi.(i) <- !si
  done

let apply m v =
  let out = Vec.create m.rows in
  apply_into m v ~dst:out;
  out

let adjoint m = init m.cols m.rows (fun i j -> Cx.conj (get m j i))
let transpose m = init m.cols m.rows (fun i j -> get m j i)
let conj m = init m.rows m.cols (fun i j -> Cx.conj (get m i j))

let trace m =
  if m.rows <> m.cols then invalid_arg "Mat.trace: not square";
  let sr = ref 0. and si = ref 0. in
  for i = 0 to m.rows - 1 do
    sr := !sr +. m.re.{(i * m.cols) + i};
    si := !si +. m.im.{(i * m.cols) + i}
  done;
  { Complex.re = !sr; im = !si }

let tensor a b =
  Qdp_obs.section "mat.tensor"
    ~attrs:(fun () ->
      [ ("macs", Qdp_obs.Trace.Float (macs4 a.rows a.cols b.rows b.cols)) ])
  @@ fun () ->
  let m = create (a.rows * b.rows) (a.cols * b.cols) in
  let are = a.re and aim = a.im and bre = b.re and bim = b.im in
  let mre = m.re and mim = m.im in
  let mcols = m.cols in
  for ia = 0 to a.rows - 1 do
    for ja = 0 to a.cols - 1 do
      let ar = uget are ((ia * a.cols) + ja) and ai = uget aim ((ia * a.cols) + ja) in
      if ar <> 0. || ai <> 0. then
        for ib = 0 to b.rows - 1 do
          for jb = 0 to b.cols - 1 do
            let br = uget bre ((ib * b.cols) + jb) and bi = uget bim ((ib * b.cols) + jb) in
            let i = (ia * b.rows) + ib and j = (ja * b.cols) + jb in
            let idx = (i * mcols) + j in
            uset mre idx ((ar *. br) -. (ai *. bi));
            uset mim idx ((ar *. bi) +. (ai *. br))
          done
        done
    done
  done;
  m

let tensor_list = function
  | [] -> invalid_arg "Mat.tensor_list: empty list"
  | m :: ms -> List.fold_left tensor m ms

let outer a b =
  init (Vec.dim a) (Vec.dim b) (fun i j -> Cx.mul (Vec.get a i) (Cx.conj (Vec.get b j)))

let of_vec v = outer v v

let equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let ok = ref true in
  for k = 0 to (a.rows * a.cols) - 1 do
    if
      Float.abs (uget a.re k -. uget b.re k) > eps
      || Float.abs (uget a.im k -. uget b.im k) > eps
    then ok := false
  done;
  !ok

let is_hermitian ?(eps = 1e-9) m = m.rows = m.cols && equal ~eps m (adjoint m)

let is_unitary ?(eps = 1e-9) m =
  m.rows = m.cols && equal ~eps (mul m (adjoint m)) (identity m.rows)

let frobenius_norm m =
  let s = ref 0. in
  for k = 0 to (m.rows * m.cols) - 1 do
    let re = uget m.re k and im = uget m.im k in
    s := !s +. (re *. re) +. (im *. im)
  done;
  Float.sqrt !s

let pp fmt m =
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "@[[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf fmt ",@ ";
      Cx.pp fmt (get m i j)
    done;
    Format.fprintf fmt "]@]@\n"
  done

(* Partial quadratic forms on one tensor factor of a bilinear form
   G on C^{big * sub}: both run as two GEMM-shaped passes (contract the
   right index with v, then the left index with conj v) over the raw
   storage, so they cost O(n^2 * f) instead of the naive
   O(n^2 * f^2) boxed-complex quadruple loop (n = rows, f = the
   contracted factor's dimension). *)

(* out[i, i'] = sum_{j, j'} conj v_j * G[(i sub + j), (i' sub + j')] * v_j' *)
let quad_minor g v =
  let n = g.rows in
  if g.cols <> n then invalid_arg "Mat.quad_minor: not square";
  let sub = Vec.dim v in
  if sub <= 0 || n mod sub <> 0 then invalid_arg "Mat.quad_minor: bad factor";
  let big = n / sub in
  let vr = Vec.raw_re v and vi = Vec.raw_im v in
  let gre = g.re and gim = g.im in
  (* t[r, i'] = sum_j' G[r, i' sub + j'] * v_j' *)
  let tre = Array.make (n * big) 0. and tim = Array.make (n * big) 0. in
  for r = 0 to n - 1 do
    let grow = r * n in
    for i' = 0 to big - 1 do
      let base = grow + (i' * sub) in
      let sr = ref 0. and si = ref 0. in
      for j' = 0 to sub - 1 do
        let ar = uget gre (base + j') and ai = uget gim (base + j') in
        sr := !sr +. (ar *. vr.(j')) -. (ai *. vi.(j'));
        si := !si +. (ar *. vi.(j')) +. (ai *. vr.(j'))
      done;
      tre.((r * big) + i') <- !sr;
      tim.((r * big) + i') <- !si
    done
  done;
  (* out[i, i'] = sum_j conj v_j * t[(i sub + j), i'] *)
  let out = create big big in
  for i = 0 to big - 1 do
    for i' = 0 to big - 1 do
      let sr = ref 0. and si = ref 0. in
      for j = 0 to sub - 1 do
        let k = ((((i * sub) + j) * big) + i') in
        let br = tre.(k) and bi = tim.(k) in
        sr := !sr +. (vr.(j) *. br) +. (vi.(j) *. bi);
        si := !si +. (vr.(j) *. bi) -. (vi.(j) *. br)
      done;
      out.re.{(i * big) + i'} <- !sr;
      out.im.{(i * big) + i'} <- !si
    done
  done;
  out

(* out[j, j'] = sum_{i, i'} conj u_i * G[(i sub + j), (i' sub + j')] * u_i' *)
let quad_major g u =
  let n = g.rows in
  if g.cols <> n then invalid_arg "Mat.quad_major: not square";
  let big = Vec.dim u in
  if big <= 0 || n mod big <> 0 then invalid_arg "Mat.quad_major: bad factor";
  let sub = n / big in
  let ur = Vec.raw_re u and ui = Vec.raw_im u in
  let gre = g.re and gim = g.im in
  (* t[r, j'] = sum_i' G[r, i' sub + j'] * u_i' *)
  let tre = Array.make (n * sub) 0. and tim = Array.make (n * sub) 0. in
  for r = 0 to n - 1 do
    let grow = r * n in
    for j' = 0 to sub - 1 do
      let sr = ref 0. and si = ref 0. in
      for i' = 0 to big - 1 do
        let k = grow + (i' * sub) + j' in
        let ar = uget gre k and ai = uget gim k in
        sr := !sr +. (ar *. ur.(i')) -. (ai *. ui.(i'));
        si := !si +. (ar *. ui.(i')) +. (ai *. ur.(i'))
      done;
      tre.((r * sub) + j') <- !sr;
      tim.((r * sub) + j') <- !si
    done
  done;
  (* out[j, j'] = sum_i conj u_i * t[(i sub + j), j'] *)
  let out = create sub sub in
  for j = 0 to sub - 1 do
    for j' = 0 to sub - 1 do
      let sr = ref 0. and si = ref 0. in
      for i = 0 to big - 1 do
        let k = ((((i * sub) + j) * sub) + j') in
        let br = tre.(k) and bi = tim.(k) in
        sr := !sr +. (ur.(i) *. br) +. (ui.(i) *. bi);
        si := !si +. (ur.(i) *. bi) -. (ui.(i) *. br)
      done;
      out.re.{(j * sub) + j'} <- !sr;
      out.im.{(j * sub) + j'} <- !si
    done
  done;
  out

let raw_re m = m.re
let raw_im m = m.im

let swap_gate d =
  init (d * d) (d * d) (fun i j ->
      let i1 = i / d and i2 = i mod d in
      let j1 = j / d and j2 = j mod d in
      if i1 = j2 && i2 = j1 then Cx.one else Cx.zero)
