open Qdp_codes
open Qdp_network
open Qdp_commcc

type params = { repetitions : int; amplification : int }

let make ?repetitions ?amplification ~r ~t ~n () =
  let repetitions =
    match repetitions with Some k -> k | None -> 42 * r * r
  in
  let amplification =
    match amplification with
    | Some a -> a
    | None -> max 1 (Report.ceil_log2 (n + t + r))
  in
  { repetitions; amplification }

type prover =
  | Honest
  | Constant_input of Gf2.t
  | Constant_of_terminal of int
  | Depth_geodesic of int

let bundle_geodesic a b t =
  Array.mapi (fun i va -> States.geodesic va b.(i) t) a

let amplified params proto =
  if params.amplification <= 1 then proto
  else Oneway.repeat params.amplification proto

let tree_instance params proto tr ~inputs ~root_terminal prover =
  let proto' = amplified params proto in
  let root_msg = proto'.Oneway.alice inputs.(root_terminal) in
  let register_content v =
    match prover with
    | Honest -> root_msg
    | Constant_input z -> proto'.Oneway.alice z
    | Constant_of_terminal k -> proto'.Oneway.alice inputs.(k)
    | Depth_geodesic k ->
        let target = proto'.Oneway.alice inputs.(k) in
        let height = max 1 (Spanning_tree.height tr) in
        bundle_geodesic root_msg target
          (float_of_int (Spanning_tree.depth tr v) /. float_of_int height)
  in
  {
    Sim.dtree = tr;
    root_message = root_msg;
    internal_registers =
      (fun v ->
        let delta = List.length (Spanning_tree.children tr v) in
        Array.make (delta + 1) (register_content v));
    leaf_accept =
      (fun v recv ->
        match Spanning_tree.terminal_of tr v with
        | Some i -> proto'.Oneway.accept_prob inputs.(i) recv
        | None -> invalid_arg "Oneway_compiler: leaf without terminal");
  }

let single_accept params proto g ~terminals ~inputs prover =
  let t = Array.length inputs in
  let acc = ref 1. in
  for j = 0 to t - 1 do
    let tr = Spanning_tree.build_rooted_at g ~terminals ~root_terminal:j in
    acc :=
      !acc
      *. Sim.down_tree_accept
           (tree_instance params proto tr ~inputs ~root_terminal:j prover)
  done;
  !acc

let accept params proto g ~terminals ~inputs prover =
  Sim.repeat_accept params.repetitions
    (single_accept params proto g ~terminals ~inputs prover)

let best_attack_accept params proto g ~terminals ~inputs =
  let t = Array.length inputs in
  let attacks =
    ("honest", Honest)
    :: List.concat
         (List.init t (fun k ->
              [
                (Printf.sprintf "constant-x%d" (k + 1), Constant_of_terminal k);
                (Printf.sprintf "geodesic->x%d" (k + 1), Depth_geodesic k);
              ]))
  in
  (* unlogged search: score as one grid, fold in candidate order *)
  let arr = Array.of_list attacks in
  let scores =
    Qdp_dist.map_shards ~label:"attack/oneway" ~n:(Array.length arr) (fun i ->
        let _, p = arr.(i) in
        single_accept params proto g ~terminals ~inputs p)
  in
  let best = ref 0. and best_name = ref "none" in
  Array.iteri
    (fun i (name, _) ->
      if scores.(i) > !best then begin
        best := scores.(i);
        best_name := name
      end)
    arr;
  (!best, !best_name)

let costs params proto g ~terminals =
  let t = List.length terminals in
  let s = params.amplification * proto.Oneway.message_qubits in
  let k = params.repetitions in
  let per_host = Array.make (Graph.size g) 0 in
  let total_msgs = ref 0 in
  for j = 0 to t - 1 do
    let tr = Spanning_tree.build_rooted_at g ~terminals ~root_terminal:j in
    for v = 0 to Spanning_tree.size tr - 1 do
      if Spanning_tree.terminal_of tr v = None then begin
        let delta = List.length (Spanning_tree.children tr v) in
        let host = Spanning_tree.host tr v in
        per_host.(host) <- per_host.(host) + ((delta + 1) * s * k)
      end;
      if Spanning_tree.parent tr v <> None then total_msgs := !total_msgs + (s * k)
    done
  done;
  let local = Array.fold_left max 0 per_host in
  let total = Array.fold_left ( + ) 0 per_host in
  {
    Report.local_proof_qubits = local;
    total_proof_qubits = total;
    local_message_qubits = t * s * k;
    total_message_qubits = !total_msgs;
    rounds = 1;
  }

let paper_local_bound ~t ~r ~s ~n =
  float_of_int (t * t * r * r * s)
  *. (Float.log (float_of_int (n + t + r)) /. Float.log 2.)
