open Qdp_linalg
open Qdp_codes
open Qdp_fingerprint

type dma_path_protocol = {
  dma_r : int;
  proof_bits : int;
  honest_proofs : Gf2.t -> string array;
  dma_accepts : x:Gf2.t -> y:Gf2.t -> proofs:string array -> bool;
}

(* Shared shape of the truncation and hash protocols: a per-input
   digest written identically at every node; nodes compare neighbours,
   ends compare against their own digest. *)
let digest_protocol ~r ~proof_bits digest =
  {
    dma_r = r;
    proof_bits;
    honest_proofs = (fun x -> Array.make (r + 1) (digest x));
    dma_accepts =
      (fun ~x ~y ~proofs ->
        if Array.length proofs <> r + 1 then false
        else begin
          let neighbours_ok = ref true in
          for j = 0 to r - 1 do
            if not (String.equal proofs.(j) proofs.(j + 1)) then
              neighbours_ok := false
          done;
          !neighbours_ok
          && String.equal proofs.(0) (digest x)
          && String.equal proofs.(r) (digest y)
        end);
  }

let truncation_protocol ~n ~r ~c =
  let c = min c n in
  let digest x = Gf2.to_string (Gf2.prefix x c) in
  digest_protocol ~r ~proof_bits:c digest

let hash_protocol ~seed ~n ~r ~c =
  let digest x =
    let st = Random.State.make [| seed; Hashtbl.hash (Gf2.to_string x); n |] in
    String.init c (fun _ -> if Random.State.bool st then '1' else '0')
  in
  digest_protocol ~r ~proof_bits:c digest

type splice = {
  splice_x : Gf2.t;
  splice_y : Gf2.t;
  spliced_proofs : string array;
}

let splice_candidates = Qdp_obs.Metrics.counter "lower_bounds.splice_candidates"

let fooling_splice proto ~n ~limit =
  let i = proto.dma_r / 2 in
  let seen = Hashtbl.create 64 in
  let result = ref None in
  let k = ref 0 in
  Qdp_log.attack_search ~proto:"lower_bounds.fooling_splice"
    ~attrs:(fun () ->
      [ ("limit", Qdp_obs.Trace.Int limit);
        ("tried", Qdp_obs.Trace.Int !k);
        ("found", Qdp_obs.Trace.Bool (!result <> None)) ])
  @@ fun () ->
  while !result = None && !k < limit do
    let x = Gf2.of_int ~width:n !k in
    let proofs = proto.honest_proofs x in
    let key = proofs.(i) ^ "|" ^ proofs.(min proto.dma_r (i + 1)) in
    (match Hashtbl.find_opt seen key with
    | Some (x', proofs') ->
        if not (Gf2.equal x x') then begin
          (* splice: left half from x', middle shared, right from x *)
          let spliced =
            Array.init (proto.dma_r + 1) (fun j ->
                if j <= i then proofs'.(j) else proofs.(j))
          in
          result :=
            Some { splice_x = x'; splice_y = x; spliced_proofs = spliced }
        end
    | None -> Hashtbl.add seen key (x, proofs));
    Qdp_obs.Metrics.incr splice_candidates;
    incr k
  done;
  Qdp_log.Log.debug (fun m ->
      m "lower_bounds fooling_splice: tried %d of %d, %s" !k limit
        (if !result = None then "no collision" else "collision found"));
  !result

let splice_breaks_soundness proto s =
  (not (Gf2.equal s.splice_x s.splice_y))
  && proto.dma_accepts ~x:s.splice_x ~y:s.splice_y ~proofs:s.spliced_proofs

let max_pairwise_overlap_random st ~qubits ~count =
  let dim = 1 lsl qubits in
  let states = Array.init count (fun _ -> States.random_unit st dim) in
  Qdp_log.attack_search ~proto:"lower_bounds.state_packing"
    ~attrs:(fun () ->
      [ ("qubits", Qdp_obs.Trace.Int qubits);
        ("count", Qdp_obs.Trace.Int count) ])
  @@ fun () ->
  (* O(count^2) pairs; [max] is exact, so sharding the outer loop
     returns bit-identical overlaps at any job or worker count *)
  let best =
    Qdp_dist.map_shards ~label:"attack/state_packing" ~n:count (fun i ->
        let b = ref 0. in
        for j = i + 1 to count - 1 do
          let ov = Cx.abs (Vec.dot states.(i) states.(j)) in
          if ov > !b then b := ov
        done;
        !b)
    |> Array.fold_left Float.max 0.
  in
  Qdp_log.Log.debug (fun m ->
      m "lower_bounds state_packing: max overlap %.6g over %d states" best count);
  best

let fingerprint_family_max_overlap ~seed ~n =
  if n > 12 then invalid_arg "fingerprint_family_max_overlap: n <= 12";
  let fp = Fingerprint.standard ~seed ~n in
  let best = ref 0. in
  for i = 0 to (1 lsl n) - 1 do
    for j = i + 1 to (1 lsl n) - 1 do
      let ov =
        Float.abs
          (Fingerprint.overlap fp (Gf2.of_int ~width:n i) (Gf2.of_int ~width:n j))
      in
      if ov > !best then best := ov
    done
  done;
  !best

let gap_splice_accept ~seed ~n ~r ~gap x y =
  if gap < 1 || gap + 2 > r then invalid_arg "gap_splice_accept: bad gap";
  let fp = Fingerprint.standard ~seed ~n in
  let hx = Fingerprint.state fp x and hy = Fingerprint.state fp y in
  (* Left chain v_0 .. v_gap: every test compares h_x registers; the
     chain ends blind at the proof-free node (no closing POVM).  Right
     chain v_{gap+1} .. v_r likewise starts blind and closes with v_r's
     POVM on h_y registers.  Nothing crosses the gap. *)
  let left =
    if gap = 1 then 1.0
    else
      Sim.path_accept
        (Sim.two_state_chain ~r:gap ~left:hx ~right:hx
           ~final:(fun _ -> 1.0 (* the proof-free node has nothing to test *))
           Strategy.All_left)
  in
  let right_len = r - gap - 1 in
  let right =
    if right_len <= 1 then Fingerprint.accept_prob fp y hy
    else
      Sim.path_accept
        (Sim.two_state_chain ~r:right_len ~left:hy ~right:hy
           ~final:(fun reg -> Fingerprint.accept_prob fp y reg.(0))
           Strategy.All_left)
  in
  left *. right

let log2f x = Float.log x /. Float.log 2.
let thm51_total_bound ~r ~n = float_of_int r *. log2f (float_of_int (max 2 n))

let thm52_bound ~r ~n ~eps ~eps' =
  Float.pow (log2f (float_of_int (max 2 n))) (0.5 -. eps)
  /. Float.pow (float_of_int r) (1. +. eps')

let cor55_bound ~r = float_of_int r

let thm56_bound ~n ~eps =
  Float.pow (log2f (float_of_int (max 2 n))) (0.25 -. eps)
