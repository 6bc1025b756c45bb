open Qdp_linalg
open Qdp_commcc
module Spanning_tree = Qdp_network.Spanning_tree

type register = Oneway.bundle

(* Kernel instrumentation for the test kernels that actually execute
   on the bench/table paths (the analytic helpers in Qdp_quantum's
   Swap_test/Permutation_test are test-only and carry none): a timing
   histogram and a call counter per kernel, plus a profiler section so
   [--profile] attributes simulator time by caller path.  All inert
   when the respective switch is off. *)
let swap_calls = Qdp_obs.Metrics.counter "kernel.swap_accept.calls"
let perm_seconds = Qdp_obs.Metrics.histogram "kernel.perm_accept.seconds"
let perm_calls = Qdp_obs.Metrics.counter "kernel.perm_accept.calls"
let path_seconds = Qdp_obs.Metrics.histogram "kernel.path_accept.seconds"
let path_calls = Qdp_obs.Metrics.counter "kernel.path_accept.calls"
let tree_seconds = Qdp_obs.Metrics.histogram "kernel.tree_accept.seconds"
let tree_calls = Qdp_obs.Metrics.counter "kernel.tree_accept.calls"
let down_tree_seconds = Qdp_obs.Metrics.histogram "kernel.down_tree_accept.seconds"
let down_tree_calls = Qdp_obs.Metrics.counter "kernel.down_tree_accept.calls"

let swap_accept a b =
  Qdp_obs.Metrics.incr swap_calls;
  let ov = Cx.norm2 (Oneway.bundle_overlap a b) in
  (1. +. ov) /. 2.

(* The inverses of [Symmetric.permutations k] in enumeration order,
   one byte per entry in a flat [k! * k] table.  Tables for
   [k <= max_cached_k] are built on first use and published through an
   [Atomic], so domains share them (a race only builds the same table
   twice); a larger [k] (k! >= 40320) gets a fresh table per call. *)
let max_cached_k = 7
let inverse_tables = Array.init (max_cached_k + 1) (fun _ -> Atomic.make None)

let build_inverses k =
  let perms = Qdp_quantum.Symmetric.permutations k in
  let t = Bytes.create (List.length perms * k) in
  List.iteri
    (fun p pi ->
      Array.iteri
        (fun l j -> Bytes.set t ((p * k) + l) (Char.chr j))
        (Qdp_quantum.Symmetric.inverse pi))
    perms;
  t

let inverses k =
  if k > max_cached_k then build_inverses k
  else
    match Atomic.get inverse_tables.(k) with
    | Some t -> t
    | None ->
        let t = build_inverses k in
        Atomic.set inverse_tables.(k) (Some t);
        t

let perm_accept regs =
  Qdp_obs.Metrics.incr perm_calls;
  Qdp_obs.section "perm_accept" @@ fun () ->
  Qdp_obs.Metrics.time perm_seconds @@ fun () ->
  let arr = Array.of_list regs in
  let k = Array.length arr in
  if k = 0 then invalid_arg "Sim.perm_accept: empty";
  if k = 1 then 1.
  else begin
    let ov_re = Array.make (k * k) 0. and ov_im = Array.make (k * k) 0. in
    for i = 0 to k - 1 do
      for j = 0 to k - 1 do
        let z = Oneway.bundle_overlap arr.(i) arr.(j) in
        ov_re.((i * k) + j) <- z.Complex.re;
        ov_im.((i * k) + j) <- z.Complex.im
      done
    done;
    (* sum_pi prod_l <r_l | r_{pi^-1 l}>, each product folded from 1
       with [Complex.mul]'s formula, so every float matches the boxed
       [Cx] fold; only the real part of the sum is needed. *)
    let inv = inverses k in
    let nperms = Bytes.length inv / k in
    let acc = ref 0. in
    for p = 0 to nperms - 1 do
      let re = ref 1. and im = ref 0. in
      for l = 0 to k - 1 do
        let o = (l * k) + Char.code (Bytes.unsafe_get inv ((p * k) + l)) in
        let yr = ov_re.(o) and yi = ov_im.(o) in
        let r = (!re *. yr) -. (!im *. yi) in
        im := (!re *. yi) +. (!im *. yr);
        re := r
      done;
      acc := !acc +. !re
    done;
    1. /. float_of_int nperms *. !acc
  end

type path_instance = {
  length : int;
  left_accept : float;
  left_send : register;
  pairs : (register * register) array;
  final_accept : register -> float;
}

(* Coin c at node j: 0 keeps (fst, snd) as (tested, forwarded), 1 swaps.
   The joint acceptance couples only adjacent coins, so a 2-state
   transfer recursion computes the exact expectation. *)
let path_accept inst =
  Qdp_obs.Metrics.incr path_calls;
  Qdp_obs.section "path_accept" @@ fun () ->
  Qdp_obs.Metrics.time path_seconds @@ fun () ->
  let r = inst.length in
  if r < 1 then invalid_arg "Sim.path_accept: length >= 1";
  if Array.length inst.pairs <> r - 1 then
    invalid_arg "Sim.path_accept: pairs length must be r - 1";
  if r = 1 then inst.left_accept *. inst.final_accept inst.left_send
  else begin
    let kept j c =
      let a, b = inst.pairs.(j - 1) in
      if c = 0 then a else b
    in
    let sent j c =
      let a, b = inst.pairs.(j - 1) in
      if c = 0 then b else a
    in
    let v =
      ref
        (Array.init 2 (fun c -> 0.5 *. swap_accept inst.left_send (kept 1 c)))
    in
    for j = 2 to r - 1 do
      let next =
        Array.init 2 (fun cj ->
            let k = kept j cj in
            0.5 *. ((!v.(0) *. swap_accept (sent (j - 1) 0) k)
                   +. (!v.(1) *. swap_accept (sent (j - 1) 1) k)))
      in
      v := next
    done;
    let tail =
      (!v.(0) *. inst.final_accept (sent (r - 1) 0))
      +. (!v.(1) *. inst.final_accept (sent (r - 1) 1))
    in
    inst.left_accept *. tail
  end

type tree_instance = {
  tree : Spanning_tree.t;
  root_state : register;
  leaf_state : int -> register;
  internal_pair : int -> register * register;
  use_permutation_test : bool;
}

let tree_enum_limit = 7

(* The test a non-leaf node runs on its kept register and the
   registers arriving from its children. *)
let node_test inst kept sents =
  if inst.use_permutation_test then perm_accept (kept :: sents)
  else begin
    (* FGNP21 ablation: SWAP test against one uniformly random child;
       the child choice is a coin we integrate analytically. *)
    match sents with
    | [] -> 1.
    | _ ->
        let total =
          List.fold_left (fun acc s -> acc +. swap_accept kept s) 0. sents
        in
        total /. float_of_int (List.length sents)
  end

let tree_accept st inst =
  Qdp_obs.Metrics.incr tree_calls;
  Qdp_obs.section "tree_accept" @@ fun () ->
  Qdp_obs.Metrics.time tree_seconds @@ fun () ->
  let tr = inst.tree in
  let is_terminal v = Spanning_tree.terminal_of tr v <> None in
  let root = Spanning_tree.root tr in
  (* kept/sent of an internal node given its coin *)
  let kept v c =
    let a, b = inst.internal_pair v in
    if c = 0 then a else b
  in
  let sent v c =
    let a, b = inst.internal_pair v in
    if c = 0 then b else a
  in
  let max_children =
    List.fold_left
      (fun acc v -> max acc (List.length (Spanning_tree.children tr v)))
      0
      (List.init (Spanning_tree.size tr) (fun v -> v))
  in
  if max_children <= tree_enum_limit then begin
    (* Exact DP: m_v.(c) = E[ product of all tests in subtree(v) | coin
       of v = c ], for internal v.  Children that are terminal leaves
       contribute a fixed register and no coin. *)
    let rec subtree_products v =
      (* returns (list of (weight, sent register) options per child
         assignment) folded into: for each assignment of internal
         children coins, the weight (product of m) and sent list *)
      let children = Spanning_tree.children tr v in
      let contribs =
        List.map
          (fun c ->
            if is_terminal c then [ (1.0, inst.leaf_state c) ]
            else
              let m = m_internal c in
              [ (0.5 *. m.(0), sent c 0); (0.5 *. m.(1), sent c 1) ])
          children
      in
      List.fold_left
        (fun acc options ->
          List.concat_map
            (fun (w, sents) ->
              List.map (fun (w', s) -> (w *. w', s :: sents)) options)
            acc)
        [ (1.0, []) ]
        contribs
      |> List.map (fun (w, sents) -> (w, List.rev sents))
    and m_internal v =
      let combos = subtree_products v in
      Array.init 2 (fun c ->
          List.fold_left
            (fun acc (w, sents) ->
              acc +. (w *. node_test inst (kept v c) sents))
            0. combos)
    in
    let combos = subtree_products root in
    List.fold_left
      (fun acc (w, sents) ->
        acc +. (w *. node_test inst inst.root_state sents))
      0. combos
  end
  else begin
    (* Monte-Carlo over coins for very wide trees. *)
    let samples = 1 lsl 16 in
    let total = ref 0. in
    for _ = 1 to samples do
      let coin = Hashtbl.create 16 in
      let coin_of v =
        match Hashtbl.find_opt coin v with
        | Some c -> c
        | None ->
            let c = if Random.State.bool st then 1 else 0 in
            Hashtbl.add coin v c;
            c
      in
      let rec prod v =
        let children = Spanning_tree.children tr v in
        let sents =
          List.map
            (fun c ->
              if is_terminal c then inst.leaf_state c else sent c (coin_of c))
            children
        in
        let own =
          if v = root then node_test inst inst.root_state sents
          else node_test inst (kept v (coin_of v)) sents
        in
        List.fold_left
          (fun acc c -> if is_terminal c then acc else acc *. prod c)
          own children
      in
      total := !total +. prod root
    done;
    !total /. float_of_int samples
  end

type down_tree_instance = {
  dtree : Spanning_tree.t;
  root_message : register;
  internal_registers : int -> register array;
  leaf_accept : int -> register -> float;
}

let down_tree_accept inst =
  Qdp_obs.Metrics.incr down_tree_calls;
  Qdp_obs.section "down_tree_accept" @@ fun () ->
  Qdp_obs.Metrics.time down_tree_seconds @@ fun () ->
  let tr = inst.dtree in
  let is_terminal v = Spanning_tree.terminal_of tr v <> None in
  let memo : (int, (register * float) list ref) Hashtbl.t = Hashtbl.create 64 in
  let rec d v recv =
    let cache =
      match Hashtbl.find_opt memo v with
      | Some c -> c
      | None ->
          let c = ref [] in
          Hashtbl.add memo v c;
          c
    in
    match List.find_opt (fun (r, _) -> r == recv) !cache with
    | Some (_, value) -> value
    | None ->
        let value =
          if is_terminal v then inst.leaf_accept v recv
          else begin
            let children = Array.of_list (Spanning_tree.children tr v) in
            let delta = Array.length children in
            let regs = inst.internal_registers v in
            if Array.length regs <> delta + 1 then
              invalid_arg "Sim.down_tree_accept: need delta + 1 registers";
            let perms = Qdp_quantum.Symmetric.permutations (delta + 1) in
            let total = ref 0. in
            List.iter
              (fun pi ->
                let inv = Qdp_quantum.Symmetric.inverse pi in
                (* slot delta is kept, slot mu goes to child mu *)
                let own = swap_accept regs.(inv.(delta)) recv in
                let acc = ref own in
                for mu = 0 to delta - 1 do
                  acc := !acc *. d children.(mu) regs.(inv.(mu))
                done;
                total := !total +. !acc)
              perms;
            !total /. float_of_int (List.length perms)
          end
        in
        cache := (recv, value) :: !cache;
        value
  in
  let root = Spanning_tree.root tr in
  List.fold_left
    (fun acc c -> acc *. d c inst.root_message)
    1.0
    (Spanning_tree.children tr root)

let repeat_accept k p = Float.pow p (float_of_int k)

let two_state_chain ?embed ~r ~left ~right ~final strategy =
  let node_state = Strategy.node_state ~r ~left ~right ?embed strategy in
  {
    length = r;
    left_accept = 1.0;
    left_send = [| left |];
    pairs =
      Array.init (r - 1) (fun i ->
          let s = node_state (i + 1) in
          ([| s |], [| s |]));
    final_accept = final;
  }
