(* Calibrated per-kernel cost model: linear fits of seconds against
   MACs for the sequential and parallel path of each instrumented
   kernel, a per-kernel crossover derived from the two fits, and a
   process-wide installed model consulted by the dispatch sites.  See
   qdp_model.mli for the contract; the key invariant is that dispatch
   only ever selects between bit-identical paths. *)

module Json = Qdp_obs.Json

(* -- overflow-safe MAC estimates ----------------------------------- *)

let macs2 a b = float_of_int a *. float_of_int b
let macs3 a b c = macs2 a b *. float_of_int c
let macs4 a b c d = macs3 a b c *. float_of_int d

(* -- fits ----------------------------------------------------------- *)

type fit = {
  f_a : float;
  f_b : float;
  f_alloc : float;
  f_n : int;
  f_r2 : float;
}

type obs = {
  o_kernel : string;
  o_path : string;
  o_macs : float;
  o_seconds : float;
  o_minor : float;
}

type kernel = {
  k_name : string;
  k_seq : fit option;
  k_par : fit option;
  k_seq_seconds : float;
  k_par_seconds : float;
}

type t = { m_jobs : int; m_kernels : kernel list }

let fit_samples samples =
  let n = List.length samples in
  if n < 2 then None
  else begin
    let nf = float_of_int n in
    let sx = ref 0. and sy = ref 0. in
    List.iter
      (fun (x, y, _) ->
        sx := !sx +. x;
        sy := !sy +. y)
      samples;
    let mx = !sx /. nf and my = !sy /. nf in
    let sxx = ref 0. and sxy = ref 0. and syy = ref 0. in
    let sxw = ref 0. and sx2 = ref 0. in
    List.iter
      (fun (x, y, w) ->
        let dx = x -. mx and dy = y -. my in
        sxx := !sxx +. (dx *. dx);
        sxy := !sxy +. (dx *. dy);
        syy := !syy +. (dy *. dy);
        sxw := !sxw +. (x *. w);
        sx2 := !sx2 +. (x *. x))
      samples;
    if !sxx <= 0. then None (* all samples at one MAC count: no slope *)
    else begin
      let b = !sxy /. !sxx in
      let a = my -. (b *. mx) in
      let r2 =
        if !syy <= 0. then 1. else !sxy *. !sxy /. (!sxx *. !syy)
      in
      let alloc = if !sx2 > 0. then Float.max 0. (!sxw /. !sx2) else 0. in
      Some
        {
          f_a = Float.max 0. a;
          f_b = Float.max 0. b;
          f_alloc = alloc;
          f_n = n;
          f_r2 = r2;
        }
    end
  end

let crossover ~seq ~par =
  if par.f_b >= seq.f_b then None
  else
    Some (Float.max 0. ((par.f_a -. seq.f_a) /. (seq.f_b -. par.f_b)))

let kernel_crossover k =
  match (k.k_seq, k.k_par) with
  | Some seq, Some par -> crossover ~seq ~par
  | _ -> None

(* -- building a model from observations ----------------------------- *)

let of_observations ~jobs obs =
  let order = ref [] in
  let tbl : (string, (float * float * float) list ref * (float * float * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun o ->
      let seqs, pars =
        match Hashtbl.find_opt tbl o.o_kernel with
        | Some cell -> cell
        | None ->
            let cell = (ref [], ref []) in
            Hashtbl.add tbl o.o_kernel cell;
            order := o.o_kernel :: !order;
            cell
      in
      let bucket = if o.o_path = "par" then pars else seqs in
      bucket := (o.o_macs, o.o_seconds, o.o_minor) :: !bucket)
    obs;
  let kernels =
    List.rev_map
      (fun name ->
        let seqs, pars = Hashtbl.find tbl name in
        let total l = List.fold_left (fun acc (_, s, _) -> acc +. s) 0. l in
        {
          k_name = name;
          k_seq = fit_samples !seqs;
          k_par = fit_samples !pars;
          k_seq_seconds = total !seqs;
          k_par_seconds = total !pars;
        })
      !order
  in
  { m_jobs = jobs; m_kernels = kernels }

(* -- installed model and dispatch ----------------------------------- *)

(* The hot path ([decide]) is one atomic load plus a hashtable probe,
   and the table is immutable after [install] builds it. *)
type lookup = { l_model : t; l_cross : (string, float option) Hashtbl.t }

let installed : lookup option Atomic.t = Atomic.make None
let forced_path : [ `Seq | `Par ] option Atomic.t = Atomic.make None

let install m =
  let tbl = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace tbl k.k_name (kernel_crossover k)) m.m_kernels;
  Atomic.set installed (Some { l_model = m; l_cross = tbl })

let clear () = Atomic.set installed None
let current () = Option.map (fun l -> l.l_model) (Atomic.get installed)
let force p = Atomic.set forced_path p
let forced () = Atomic.get forced_path

let decide ~kernel ~macs ~default =
  match Atomic.get forced_path with
  | Some `Seq -> false
  | Some `Par -> true
  | None -> (
      match Atomic.get installed with
      | None -> default
      | Some l -> (
          match Hashtbl.find_opt l.l_cross kernel with
          | None -> default
          | Some None -> false
          | Some (Some c) -> macs >= c))

(* -- BENCH_model.json ----------------------------------------------- *)

(* Predicted speedup probe: evaluated at a fixed MAC count so the
   value is comparable across runs. *)
let speedup_probe_macs = 1e6

let predict fit macs = fit.f_a +. (fit.f_b *. macs)

let json_of_fit name fit total =
  let f = Option.value fit ~default:{ f_a = 0.; f_b = 0.; f_alloc = 0.; f_n = 0; f_r2 = 0. } in
  Printf.sprintf
    "\"%s\":{\"samples\":%d,\"a_s\":%s,\"b_s_per_mac\":%s,\"alloc_w_per_mac\":%s,\"r2\":%s,\"total_s\":%s}"
    name f.f_n (Json.float f.f_a) (Json.float f.f_b) (Json.float f.f_alloc)
    (Json.float f.f_r2) (Json.float total)

let to_json m =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\"jobs\":%d,\n\"cost_model\":[" m.m_jobs);
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_string buf ",\n";
      let cross =
        match kernel_crossover k with Some c -> c | None -> -1.
      in
      let speedup =
        match (k.k_seq, k.k_par) with
        | Some seq, Some par ->
            let p = predict par speedup_probe_macs in
            if p > 0. then predict seq speedup_probe_macs /. p else 0.
        | _ -> 0.
      in
      Buffer.add_string buf
        (Printf.sprintf "{\"kernel\":%s,%s,%s,\"crossover_macs\":%s,\"par_speedup_at_1e6_macs\":%s}"
           (Json.str k.k_name)
           (json_of_fit "seq" k.k_seq k.k_seq_seconds)
           (json_of_fit "par" k.k_par k.k_par_seconds)
           (Json.float cross) (Json.float speedup)))
    m.m_kernels;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let write_json m path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json m))
