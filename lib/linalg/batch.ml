(* A column batch stores [count] vectors of dimension [dim] row-major
   by vector index: entry (g, c) lives at [g * count + c], so one "row"
   holds entry [g] of every column contiguously.  A linear map applied
   to all columns runs fused multiply-adds over whole rows of [count]
   floats, and the Gram kernel streams the batch once per output tile
   instead of once per output entry.

   Storage is unboxed Bigarray float64 (shared [Mat.farr] type); the
   hot kernels use unchecked accesses with bounds derived from the
   shapes that sized the buffers, and keep the exact per-cell
   accumulation order of the original float-array code. *)

type t = { dim : int; count : int; re : Mat.farr; im : Mat.farr }

(* Monomorphic access primitives (see the note in mat.ml: an alias of
   the polymorphic external boxes every float). *)
external uget : Mat.farr -> int -> float = "%caml_ba_unsafe_ref_1"
external uset : Mat.farr -> int -> float -> unit = "%caml_ba_unsafe_set_1"

let fcreate n : Mat.farr =
  let a = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n in
  Bigarray.Array1.fill a 0.;
  a

let create dim count =
  if dim < 0 || count <= 0 then invalid_arg "Batch.create: bad shape";
  { dim; count; re = fcreate (dim * count); im = fcreate (dim * count) }

let dim b = b.dim
let count b = b.count
let raw_re b = b.re
let raw_im b = b.im

let get b g c =
  { Complex.re = b.re.{(g * b.count) + c}; im = b.im.{(g * b.count) + c} }

let init dim count f =
  let b = create dim count in
  for g = 0 to dim - 1 do
    for c = 0 to count - 1 do
      let z = f g c in
      b.re.{(g * count) + c} <- z.Complex.re;
      b.im.{(g * count) + c} <- z.Complex.im
    done
  done;
  b

let of_cols cols =
  let n = Array.length cols in
  if n = 0 then invalid_arg "Batch.of_cols: empty";
  let d = Vec.dim cols.(0) in
  Array.iter
    (fun v ->
      if Vec.dim v <> d then invalid_arg "Batch.of_cols: ragged columns")
    cols;
  let b = create d n in
  for c = 0 to n - 1 do
    let vr = Vec.raw_re cols.(c) and vi = Vec.raw_im cols.(c) in
    for g = 0 to d - 1 do
      b.re.{(g * n) + c} <- vr.(g);
      b.im.{(g * n) + c} <- vi.(g)
    done
  done;
  b

let col b c =
  if c < 0 || c >= b.count then invalid_arg "Batch.col: column out of range";
  let v = Vec.create b.dim in
  let vr = Vec.raw_re v and vi = Vec.raw_im v in
  for g = 0 to b.dim - 1 do
    vr.(g) <- b.re.{(g * b.count) + c};
    vi.(g) <- b.im.{(g * b.count) + c}
  done;
  v

let equal ?(eps = 1e-9) a b =
  a.dim = b.dim && a.count = b.count
  &&
  let ok = ref true in
  for k = 0 to (a.dim * a.count) - 1 do
    if
      Float.abs (uget a.re k -. uget b.re k) > eps
      || Float.abs (uget a.im k -. uget b.im k) > eps
    then ok := false
  done;
  !ok

let fill_row_zero b g =
  let base = g * b.count in
  for c = 0 to b.count - 1 do
    uset b.re (base + c) 0.;
    uset b.im (base + c) 0.
  done

let apply_into m ~src ~dst =
  if Mat.cols m <> src.dim || Mat.rows m <> dst.dim then
    invalid_arg "Batch.apply_into: shape mismatch";
  if src.count <> dst.count then
    invalid_arg "Batch.apply_into: column count mismatch";
  Qdp_obs.section "batch.apply_into"
    ~attrs:(fun () ->
      let macs = Mat.macs3 (Mat.rows m) (Mat.cols m) src.count in
      [ ("macs", Qdp_obs.Trace.Float macs) ])
  @@ fun () ->
  let n = src.count in
  let mr = Mat.raw_re m and mi = Mat.raw_im m in
  let sr = src.re and si = src.im in
  let dr = dst.re and di = dst.im in
  let cols = Mat.cols m in
  for i = 0 to dst.dim - 1 do
    let drow = i * n in
    fill_row_zero dst i;
    let mrow = i * cols in
    for j = 0 to cols - 1 do
      let ar = uget mr (mrow + j) and ai = uget mi (mrow + j) in
      if ar <> 0. || ai <> 0. then begin
        let srow = j * n in
        for c = 0 to n - 1 do
          let br = uget sr (srow + c) and bi = uget si (srow + c) in
          uset dr (drow + c) (uget dr (drow + c) +. (ar *. br) -. (ai *. bi));
          uset di (drow + c) (uget di (drow + c) +. (ar *. bi) +. (ai *. br))
        done
      end
    done
  done

let is_real b =
  let ok = ref true in
  let im = b.im in
  for k = 0 to (b.dim * b.count) - 1 do
    if uget im k <> 0. then ok := false
  done;
  !ok

(* Tile width of the Gram kernel: each tile owns [gram_tile] output
   rows and streams the whole batch once, so the per-cell accumulation
   runs over the vector index in ascending order. *)
let gram_tile = 32

let gram a =
  let n = a.count and d = a.dim in
  Qdp_obs.section "batch.gram"
    ~attrs:(fun () ->
      (* computed upper triangle only: d MACs per (i, j <= i) cell *)
      let macs = Mat.macs2 d n *. float_of_int (n + 1) /. 2. in
      [ ("macs", Qdp_obs.Trace.Float macs) ])
  @@ fun () ->
  let g = Mat.create n n in
  let gr = Mat.raw_re g and gi = Mat.raw_im g in
  let ar = a.re and ai = a.im in
  let real = is_real a in
  let tiles = (n + gram_tile - 1) / gram_tile in
  (* Register-blocked micro-kernel: two output rows per pass over a
     batch row, halving the loads of the streamed [y] values.  A cell
     (i, j) is still updated at most once per vector index [v], in
     ascending [v], with the same zero-skip per (v, row) as the scalar
     code — the floats cannot differ, only the memory traffic does. *)
  let tile t =
    let i0 = t * gram_tile and i1 = min n ((t + 1) * gram_tile) - 1 in
    if real then
      for v = 0 to d - 1 do
        let row = v * n in
        let i = ref i0 in
        while !i < i1 do
          let ia = !i and ib = !i + 1 in
          let xa = uget ar (row + ia) and xb = uget ar (row + ib) in
          let outa = ia * n and outb = ib * n in
          if xa <> 0. then begin
            if xb <> 0. then begin
              uset gr (outa + ia) (uget gr (outa + ia) +. (xa *. xa));
              for j = ib to n - 1 do
                let y = uget ar (row + j) in
                uset gr (outa + j) (uget gr (outa + j) +. (xa *. y));
                uset gr (outb + j) (uget gr (outb + j) +. (xb *. y))
              done
            end
            else
              for j = ia to n - 1 do
                uset gr (outa + j) (uget gr (outa + j) +. (xa *. uget ar (row + j)))
              done
          end
          else if xb <> 0. then
            for j = ib to n - 1 do
              uset gr (outb + j) (uget gr (outb + j) +. (xb *. uget ar (row + j)))
            done;
          i := !i + 2
        done;
        if !i = i1 then begin
          let x = uget ar (row + i1) in
          if x <> 0. then begin
            let out = i1 * n in
            for j = i1 to n - 1 do
              uset gr (out + j) (uget gr (out + j) +. (x *. uget ar (row + j)))
            done
          end
        end
      done
    else
      for v = 0 to d - 1 do
        let row = v * n in
        for i = i0 to i1 do
          let xr = uget ar (row + i) and xi = uget ai (row + i) in
          if xr <> 0. || xi <> 0. then begin
            let out = i * n in
            for j = i to n - 1 do
              let yr = uget ar (row + j) and yi = uget ai (row + j) in
              (* conj x * y *)
              uset gr (out + j) (uget gr (out + j) +. (xr *. yr) +. (xi *. yi));
              uset gi (out + j) (uget gi (out + j) +. (xr *. yi) -. (xi *. yr))
            done
          end
        done
      done
  in
  for t = 0 to tiles - 1 do
    tile t
  done;
  (* Hermitian mirror: the strict lower triangle is the conjugate of
     the computed upper triangle. *)
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      gr.{(j * n) + i} <- gr.{(i * n) + j};
      gi.{(j * n) + i} <- -.gi.{(i * n) + j}
    done
  done;
  g
