open Qdp_linalg

type layout = {
  names : string array;
  widths : int array;
  offsets : int array;
  total : int;
}

type t = { lay : layout; vec : Vec.t }

let layout regs =
  let n = List.length regs in
  let names = Array.make n "" and widths = Array.make n 0 in
  List.iteri
    (fun i (name, w) ->
      if w <= 0 then invalid_arg "Pure.layout: non-positive width";
      names.(i) <- name;
      widths.(i) <- w)
    regs;
  let tbl = Hashtbl.create n in
  Array.iter
    (fun name ->
      if Hashtbl.mem tbl name then invalid_arg "Pure.layout: duplicate register";
      Hashtbl.add tbl name ())
    names;
  let offsets = Array.make n 0 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    offsets.(i) <- !acc;
    acc := !acc + widths.(i)
  done;
  { names; widths; offsets; total = !acc }

let layout_registers l =
  Array.to_list (Array.mapi (fun i name -> (name, l.widths.(i))) l.names)

let total_qubits l = l.total

let index_of_name l name =
  let rec find i =
    if i >= Array.length l.names then
      invalid_arg
        (Printf.sprintf "Pure: unknown register %S (layout has %s)" name
           (String.concat ", "
              (Array.to_list (Array.map (Printf.sprintf "%S") l.names))))
    else if String.equal l.names.(i) name then i
    else find (i + 1)
  in
  find 0

(* Global qubit positions (0 = most significant) of a register. *)
let positions_of_register l i =
  List.init l.widths.(i) (fun k -> l.offsets.(i) + k)

let positions_of_names l names =
  List.concat_map (fun n -> positions_of_register l (index_of_name l n)) names

let zero l = { lay = l; vec = Vec.basis (1 lsl l.total) 0 }

let product l states =
  let n = Array.length l.names in
  let parts =
    Array.to_list
      (Array.init n (fun i ->
           match List.assoc_opt l.names.(i) states with
           | None -> Vec.basis (1 lsl l.widths.(i)) 0
           | Some v ->
               if Vec.dim v <> 1 lsl l.widths.(i) then
                 invalid_arg
                   (Printf.sprintf "Pure.product: register %s expects dim %d"
                      l.names.(i)
                      (1 lsl l.widths.(i)));
               v))
  in
  List.iter
    (fun (name, _) ->
      if not (Array.exists (String.equal name) l.names) then
        invalid_arg (Printf.sprintf "Pure.product: unknown register %s" name))
    states;
  { lay = l; vec = Vec.tensor_list parts }

let of_global l v =
  if Vec.dim v <> 1 lsl l.total then invalid_arg "Pure.of_global: dimension";
  { lay = l; vec = v }

let get_layout s = s.lay
let dim s = Vec.dim s.vec
let global_vector s = s.vec
let register_width s name = s.lay.widths.(index_of_name s.lay name)

let norm2 s =
  let n = Vec.norm s.vec in
  n *. n

let normalize s = { s with vec = Vec.normalize s.vec }
let inner a b = Vec.dot a.vec b.vec

(* Scatter/gather between a packed sub-value over selected qubit
   positions (listed most-significant-first) and global indices. *)
let bit_of_position total p = 1 lsl (total - 1 - p)

let scatter total positions =
  let k = List.length positions in
  let masks = Array.of_list (List.map (bit_of_position total) positions) in
  fun value ->
    let g = ref 0 in
    for t = 0 to k - 1 do
      if (value lsr (k - 1 - t)) land 1 = 1 then g := !g lor masks.(t)
    done;
    !g

let rest_positions total positions =
  let selected = Array.make total false in
  List.iter (fun p -> selected.(p) <- true) positions;
  List.filter (fun p -> not selected.(p)) (List.init total (fun p -> p))

let apply_on s names m =
  let positions = positions_of_names s.lay names in
  let k = List.length positions in
  if Mat.rows m <> 1 lsl k || Mat.cols m <> 1 lsl k then
    invalid_arg "Pure.apply_on: operator dimension mismatch";
  let total = s.lay.total in
  let rest = rest_positions total positions in
  let rest_scatter = scatter total rest in
  let subdim = 1 lsl k and restdim = 1 lsl List.length rest in
  let sel_index = Array.init subdim (scatter total positions) in
  let out = Vec.create (Vec.dim s.vec) in
  (* One gather buffer and one result buffer, reused across every
     rest-subspace iteration — the kernel allocates nothing inside the
     loop. *)
  let sub = Vec.create subdim and res = Vec.create subdim in
  let vr = Vec.raw_re s.vec and vi = Vec.raw_im s.vec in
  let outr = Vec.raw_re out and outi = Vec.raw_im out in
  let subr = Vec.raw_re sub and subi = Vec.raw_im sub in
  let resr = Vec.raw_re res and resi = Vec.raw_im res in
  for rv = 0 to restdim - 1 do
    let base = rest_scatter rv in
    for a = 0 to subdim - 1 do
      let g = base lor sel_index.(a) in
      subr.(a) <- vr.(g);
      subi.(a) <- vi.(g)
    done;
    Mat.apply_into m sub ~dst:res;
    for a = 0 to subdim - 1 do
      let g = base lor sel_index.(a) in
      outr.(g) <- resr.(a);
      outi.(g) <- resi.(a)
    done
  done;
  { s with vec = out }

(* Field extraction for a register: value and a writer. *)
let field_mask_shift l i =
  let w = l.widths.(i) in
  let shift = l.total - l.offsets.(i) - w in
  (((1 lsl w) - 1) lsl shift, shift)

(* Equal-width register slots to permute: their field masks/shifts,
   validated once.  [perm_index_map] turns a permutation of the slots
   into the allocation-free global-index map [g -> g']: slot [slot] of
   the image holds the field read from slot [inv pi slot]. *)
let perm_slots l names =
  let idxs = Array.map (index_of_name l) names in
  let w0 = l.widths.(idxs.(0)) in
  Array.iter
    (fun i ->
      if l.widths.(i) <> w0 then
        invalid_arg "Pure.permute_registers: width mismatch")
    idxs;
  Array.map (field_mask_shift l) idxs

let perm_index_map ms pi =
  let k = Array.length ms in
  if Array.length pi <> k then invalid_arg "Pure.permute_registers: perm size";
  let inv = Symmetric.inverse pi in
  let clear_mask = Array.fold_left (fun acc (m, _) -> acc lor m) 0 ms |> lnot in
  fun g ->
    let g' = ref (g land clear_mask) in
    for slot = 0 to k - 1 do
      let m_src, sh_src = ms.(inv.(slot)) in
      let _, sh_dst = ms.(slot) in
      g' := !g' lor (((g land m_src) lsr sh_src) lsl sh_dst)
    done;
    !g'

let permute_registers s names pi =
  let map = perm_index_map (perm_slots s.lay names) pi in
  let out = Vec.create (Vec.dim s.vec) in
  let vr = Vec.raw_re s.vec and vi = Vec.raw_im s.vec in
  let outr = Vec.raw_re out and outi = Vec.raw_im out in
  for g = 0 to Vec.dim s.vec - 1 do
    let g' = map g in
    outr.(g') <- vr.(g);
    outi.(g') <- vi.(g)
  done;
  { s with vec = out }

let swap_registers s a b = permute_registers s [| a; b |] [| 1; 0 |]

let cswap_index_map l ~control a b =
  let ci = index_of_name l control in
  if l.widths.(ci) <> 1 then invalid_arg "Pure.controlled_swap: control width";
  let cmask, _ = field_mask_shift l ci in
  let ia = index_of_name l a and ib = index_of_name l b in
  if l.widths.(ia) <> l.widths.(ib) then
    invalid_arg "Pure.controlled_swap: width mismatch";
  let ma, sha = field_mask_shift l ia in
  let mb, shb = field_mask_shift l ib in
  fun g ->
    if g land cmask = 0 then g
    else
      let fa = (g land ma) lsr sha and fb = (g land mb) lsr shb in
      g land lnot (ma lor mb) lor (fb lsl sha) lor (fa lsl shb)

let controlled_swap s ~control a b =
  let map = cswap_index_map s.lay ~control a b in
  let out = Vec.create (Vec.dim s.vec) in
  let vr = Vec.raw_re s.vec and vi = Vec.raw_im s.vec in
  let outr = Vec.raw_re out and outi = Vec.raw_im out in
  for g = 0 to Vec.dim s.vec - 1 do
    let g' = map g in
    outr.(g') <- vr.(g);
    outi.(g') <- vi.(g)
  done;
  { s with vec = out }

(* Fused symmetrizer: all k! permutations accumulate straight into one
   output vector — no per-permutation full-dimension temporaries. *)
let project_sym s names =
  let arr = Array.of_list names in
  let ms = perm_slots s.lay arr in
  let perms = Symmetric.permutations (Array.length arr) in
  let fact = float_of_int (List.length perms) in
  let acc = Vec.create (Vec.dim s.vec) in
  let vr = Vec.raw_re s.vec and vi = Vec.raw_im s.vec in
  let accr = Vec.raw_re acc and acci = Vec.raw_im acc in
  List.iter
    (fun pi ->
      let map = perm_index_map ms pi in
      for g = 0 to Vec.dim s.vec - 1 do
        let g' = map g in
        accr.(g') <- accr.(g') +. vr.(g);
        acci.(g') <- acci.(g') +. vi.(g)
      done)
    perms;
  Vec.scale_inplace (Cx.re (1. /. fact)) acc;
  { s with vec = acc }

let outcome_probabilities s name =
  let l = s.lay in
  let i = index_of_name l name in
  let m, sh = field_mask_shift l i in
  let probs = Array.make (1 lsl l.widths.(i)) 0. in
  let vr = Vec.raw_re s.vec and vi = Vec.raw_im s.vec in
  for g = 0 to Vec.dim s.vec - 1 do
    let v = (g land m) lsr sh in
    probs.(v) <- probs.(v) +. (vr.(g) *. vr.(g)) +. (vi.(g) *. vi.(g))
  done;
  probs

let prob_of_outcome s name v =
  let probs = outcome_probabilities s name in
  if v < 0 || v >= Array.length probs then 0. else probs.(v)

let measure st s name =
  let probs = outcome_probabilities s name in
  let total = Array.fold_left ( +. ) 0. probs in
  if total <= 0. then invalid_arg "Pure.measure: zero state";
  let x = Random.State.float st total in
  let outcome = ref (Array.length probs - 1) in
  let acc = ref 0. in
  (try
     Array.iteri
       (fun v p ->
         acc := !acc +. p;
         if !acc >= x then begin
           outcome := v;
           raise Exit
         end)
       probs
   with Exit -> ());
  let l = s.lay in
  let i = index_of_name l name in
  let m, sh = field_mask_shift l i in
  let out = Vec.create (Vec.dim s.vec) in
  let vr = Vec.raw_re s.vec and vi = Vec.raw_im s.vec in
  let outr = Vec.raw_re out and outi = Vec.raw_im out in
  for g = 0 to Vec.dim s.vec - 1 do
    if (g land m) lsr sh = !outcome then begin
      outr.(g) <- vr.(g);
      outi.(g) <- vi.(g)
    end
  done;
  (!outcome, normalize { s with vec = out })

let reduced_density s names =
  let total = s.lay.total in
  let positions = positions_of_names s.lay names in
  let k = List.length positions in
  let sel_scatter = scatter total positions in
  let rest = rest_positions total positions in
  let rest_scatter = scatter total rest in
  let subdim = 1 lsl k in
  let sel_index = Array.init subdim sel_scatter in
  let rho = Mat.create subdim subdim in
  let vr = Vec.raw_re s.vec and vi = Vec.raw_im s.vec in
  for rv = 0 to (1 lsl List.length rest) - 1 do
    let base = rest_scatter rv in
    for a = 0 to subdim - 1 do
      let ga = base lor sel_index.(a) in
      let ar = vr.(ga) and ai = vi.(ga) in
      if ar <> 0. || ai <> 0. then
        for b = 0 to subdim - 1 do
          let gb = base lor sel_index.(b) in
          let br = vr.(gb) and bi = vi.(gb) in
          (* rho[a,b] += psi_a * conj psi_b *)
          let prev = Mat.get rho a b in
          Mat.set rho a b
            (Cx.add prev
               {
                 Complex.re = (ar *. br) +. (ai *. bi);
                 im = (ai *. br) -. (ar *. bi);
               })
        done
    done
  done;
  rho
