(* Per-layer probes for the traced run: each times one public function
   of a layer at the shape a workload calls it with, so a change to
   that layer shows here before (or without) showing end to end.  The
   inputs are fixed (the default spec, the load mix at its default
   seed), so a probe reads the same work in every run.  The README maps
   every probe to the end-to-end metric it should move. *)

open Qdp_linalg
open Qdp_network
open Qdp_core
module Plan = Qdp_faults.Plan
module Eval = Qdp_serve.Eval
module Request = Qdp_serve.Request
module Frame = Qdp_dist.Frame

let now = Proc.now

(* Median seconds per call of [f] over [blocks] blocks of calls, each
   block at least 2 ms long so that sub-microsecond calls still time
   well, after one warm-up call. *)
let per_call ?(blocks = 5) f =
  ignore (Sys.opaque_identity (f ()));
  let reps = ref 1 in
  let block () =
    let t0 = now () in
    for _ = 1 to !reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    now () -. t0
  in
  let rec calibrate () =
    let dt = block () in
    if dt < 0.002 then begin
      reps := !reps * 2;
      calibrate ()
    end
    else dt
  in
  let first = calibrate () in
  let samples = Array.init blocks (fun i -> if i = 0 then first else block ()) in
  Stats.median samples /. float_of_int !reps

let ms s = s *. 1e3
let us s = s *. 1e6
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let gaussian_mat st r c =
  Mat.init r c (fun _ _ -> Cx.make (States.gaussian st) (States.gaussian st))

(* --- linalg, quantum, core: the exact kernels behind the tables --- *)

let kernels () =
  let st = Random.State.make [| 0x6a7 |] in
  (* The largest path instance the tables exercise: r = 3 with 2-qubit
     fingerprints, a 256-proof batch of dimension-4096 final states. *)
  let cfg = { Exact.r = 3; qubits = 2 } in
  let xs = Exact.toy_state ~qubits:2 5 and ys = Exact.toy_state ~qubits:2 11 in
  let pdim = 1 lsl Exact.proof_qubits cfg in
  let batch =
    Batch.of_cols
      (Array.init pdim (fun i ->
           Qdp_quantum.Pure.global_vector
             (Exact.final_state cfg ~x_state:xs ~y_state:ys ~proof:(Vec.basis pdim i))))
  in
  let m64 = gaussian_mat st 64 64 in
  let src = Batch.init 64 32 (fun _ _ -> Cx.make (States.gaussian st) (States.gaussian st)) in
  let dst = Batch.create 64 32 in
  let a192 = gaussian_mat st 192 192 and b192 = gaussian_mat st 192 192 in
  let runit n = Vec.normalize (Vec.init n (fun _ -> Cx.re (States.gaussian st))) in
  let regs = List.init 4 (fun _ -> runit 64) in
  let chain =
    let l = runit 128 in
    Sim.two_state_chain ~r:64 ~left:l ~right:(runit 128)
      ~final:(fun reg -> Cx.norm2 (Vec.dot l reg.(0)))
      Strategy.Geodesic
  in
  let evaluate_demo =
    mean
      (List.map
         (fun e ->
           let t0 = now () in
           ignore (Registry.evaluate_demo Registry.default_spec e);
           now () -. t0)
         (Registry.all ()))
  in
  [
    ("linalg.gram_ms", ms (per_call (fun () -> Batch.gram batch)));
    ("linalg.apply_into_us", us (per_call (fun () -> Batch.apply_into m64 ~src ~dst)));
    ("linalg.mat_mul_ms", ms (per_call (fun () -> Mat.mul a192 b192)));
    ( "quantum.perm_test_us",
      us (per_call (fun () -> Qdp_quantum.Permutation_test.accept_prob_product regs)) );
    ("core.path_accept_us", us (per_call (fun () -> Sim.path_accept chain)));
    ( "core.attack_gram_ms",
      ms (per_call (fun () -> Exact.attack_gram cfg ~x_state:xs ~y_state:ys)) );
    ("core.evaluate_demo_ms", ms evaluate_demo);
  ]

(* --- network and faults: one execution per fault-capable entry --- *)

(* Every node sends its id to every neighbour every round: the engine's
   own cost on an execution's graph and round count, with no protocol
   work in the node program. *)
let flood g =
  {
    Runtime.init = (fun _ -> ());
    round =
      (fun ~round:_ ~id () ~inbox:_ ->
        ((), List.map (fun d -> (d, id)) (Graph.neighbours g id)));
    finish = (fun ~id:_ () -> Runtime.Accept);
  }

let network () =
  let rows =
    List.filter_map
      (fun e ->
        match Registry.fault_suite Registry.default_spec e with
        | None -> None
        | Some suite ->
            let case = List.hd suite.Registry.fs_yes in
            let st = Random.State.make [| 1 |] in
            let exec () =
              case.Registry.fc_run st
                (Fault_env.perfect ~st:(Random.State.make [| 2 |]))
            in
            let exec_s = per_call exec in
            let calls = 32 in
            let w0 = Gc.minor_words () in
            for _ = 1 to calls do
              ignore (Sys.opaque_identity (exec ()))
            done;
            let words = (Gc.minor_words () -. w0) /. float_of_int calls in
            let verdicts, stats = exec () in
            let g = Graph.create (Array.length verdicts) in
            List.iter (fun ((a, b), _) -> Graph.add_edge g a b) stats.Runtime.per_edge;
            let engine_s =
              per_call (fun () -> Runtime.run g ~rounds:stats.Runtime.rounds_run (flood g))
            in
            let faulted_s =
              per_call (fun () ->
                  Plan.execute Plan.Reject_on_timeout (fun () ->
                      case.Registry.fc_run st
                        (Plan.env Plan.Drop ~strength:0.1
                           ~st:(Random.State.make [| 3 |]))))
            in
            Some (exec_s, engine_s, words, faulted_s))
      (Registry.all ())
  in
  let col f = List.map f rows in
  let exec = col (fun (e, _, _, _) -> e) and engine = col (fun (_, g, _, _) -> g) in
  [
    ("network.exec_us", us (mean exec));
    ("network.engine_us", us (mean engine));
    ("network.engine_frac", mean engine /. mean exec);
    ("network.alloc_words_per_exec", mean (col (fun (_, _, w, _) -> w)));
    ("faults.execute_us", us (mean (col (fun (_, _, _, f) -> f))));
  ]

(* --- dist: what a forked shard costs over an in-process one --- *)

let dist () =
  let n = 64 in
  let saved = Qdp_dist.workers () in
  let at workers =
    Qdp_dist.set_workers workers;
    per_call ~blocks:3 (fun () -> Qdp_dist.map_shards ~label:"probe" ~n (fun i -> i * i))
  in
  let in_process = at 0 in
  let forked = at 2 in
  Qdp_dist.set_workers saved;
  [ ("dist.shard_overhead_us", us ((forked -. in_process) /. float_of_int n)) ]

(* --- serve: the per-request pieces around evaluation, on the mix --- *)

let serve () =
  let mix = Qdp_serve.Load.mix () in
  let faulted, plain = List.partition (fun r -> r.Request.rq_fault <> None) mix in
  let eval_mean rs =
    mean
      (List.map
         (fun r ->
           let t0 = now () in
           ignore (Eval.run r);
           now () -. t0)
         rs)
  in
  let r = List.hd faulted in
  let payload = Request.to_json r in
  let response =
    match Eval.run (List.hd plain) with Ok s -> s | Error e -> failwith e
  in
  let frame = Frame.encode (Frame.Reply { id = 1; payload = response }) in
  let keys = Array.of_list (List.map Request.key mix) in
  let lru = Qdp_serve.Lru.create Qdp_serve.Server.default_config.cache_capacity in
  Array.iter (fun k -> Qdp_serve.Lru.add lru k response) keys;
  let i = ref 0 in
  [
    ("serve.decode_us", us (per_call (fun () -> Request.of_string payload)));
    ("serve.key_us", us (per_call (fun () -> Request.key r)));
    ( "serve.frame_us",
      us
        (per_call (fun () ->
             let rd = Frame.reader () in
             Frame.feed rd (Bytes.unsafe_of_string frame) (String.length frame);
             Frame.next rd)) );
    ( "serve.lru_hit_us",
      us
        (per_call (fun () ->
             incr i;
             Qdp_serve.Lru.find lru keys.(!i mod Array.length keys))) );
    ("serve.eval_plain_ms", ms (eval_mean plain));
    ("serve.eval_faulted_ms", ms (eval_mean faulted));
  ]

let names =
  [
    "linalg.gram_ms";
    "linalg.apply_into_us";
    "linalg.mat_mul_ms";
    "quantum.perm_test_us";
    "core.path_accept_us";
    "core.attack_gram_ms";
    "core.evaluate_demo_ms";
    "network.exec_us";
    "network.engine_us";
    "network.engine_frac";
    "network.alloc_words_per_exec";
    "faults.execute_us";
    "dist.shard_overhead_us";
    "serve.decode_us";
    "serve.key_us";
    "serve.frame_us";
    "serve.lru_hit_us";
    "serve.eval_plain_ms";
    "serve.eval_faulted_ms";
  ]

let run () = kernels () @ network () @ dist () @ serve ()
