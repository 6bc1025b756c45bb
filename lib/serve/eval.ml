(* The one evaluation function behind the verification service: maps a
   validated {!Request.t} to a response JSON string, deterministically
   — every RNG below derives from the request's own seed, never from
   server state, the wall clock or arrival order.  The server and the
   load generator's [--direct] mode share this code path, which is
   what makes the end-to-end determinism check (`qdp load` digest ==
   direct digest) meaningful. *)

module Json = Qdp_obs.Json
module Registry = Qdp_core.Registry
module Plan = Qdp_faults.Plan
module Runtime = Qdp_network.Runtime

let obs_evals = Qdp_obs.Metrics.counter "serve.evals"
let obs_eval_seconds = Qdp_obs.Metrics.histogram "serve.eval.seconds"

(* --- plain analytic evaluation --- *)

let instance_json (ev : Qdp_core.Dqma.evaluation) =
  Printf.sprintf
    "{\"honest_accept\":%s,\"best_attack\":%s,\"best_attack_name\":%s,\"meets_spec\":%b}"
    (Json.float ev.Qdp_core.Dqma.honest_accept)
    (Json.float ev.Qdp_core.Dqma.best_attack)
    (Json.str ev.Qdp_core.Dqma.best_attack_name)
    ev.Qdp_core.Dqma.meets_spec

let plain r entry =
  let name, yes, no, costs = Registry.evaluate_demo r.Request.rq_spec entry in
  let ok =
    yes.Qdp_core.Dqma.meets_spec && no.Qdp_core.Dqma.meets_spec
  in
  Printf.sprintf
    "{\"protocol\":%s,\"name\":%s,\"mode\":\"plain\",\"yes\":%s,\"no\":%s,\"costs\":{\"local_proof_qubits\":%d,\"total_proof_qubits\":%d,\"local_message_qubits\":%d,\"total_message_qubits\":%d,\"rounds\":%d},\"ok\":%b}"
    (Json.str r.Request.rq_protocol)
    (Json.str name) (instance_json yes) (instance_json no)
    costs.Qdp_core.Report.local_proof_qubits
    costs.Qdp_core.Report.total_proof_qubits
    costs.Qdp_core.Report.local_message_qubits
    costs.Qdp_core.Report.total_message_qubits
    costs.Qdp_core.Report.rounds ok

(* --- sampled evaluation under a fault plan --- *)

(* Same RNG discipline as the fault sweep: every stream derives from
   (request seed, side, case index) so the response depends only on
   the request. *)
let fault_case_rate ~seed ~fault ~side ~ci (case : Registry.fault_case) =
  let proto_st = Random.State.make [| seed; 0x5e7e; side; ci; 0 |] in
  let fault_st = Random.State.make [| seed; 0x5e7e; side; ci; 1 |] in
  let env =
    match Plan.of_name fault.Request.f_kind with
    | Some kind ->
        Plan.env ?turn:fault.Request.f_turn kind
          ~strength:fault.Request.f_strength ~st:fault_st
    | None -> assert false (* validated by Request.of_json *)
  in
  let run = case.Registry.fc_prepare () in
  let hits = ref 0 and errors = ref 0 and injected = ref 0 in
  for _ = 1 to fault.Request.f_trials do
    let o = Plan.execute Plan.Reject_on_timeout (fun () -> run proto_st env) in
    if o.Plan.accepted then incr hits;
    errors := !errors + o.Plan.protocol_errors;
    injected := !injected + o.Plan.injected
  done;
  ( case.Registry.fc_strategy,
    float_of_int !hits /. float_of_int fault.Request.f_trials,
    !errors,
    !injected )

let measures_json ms =
  "["
  ^ String.concat ","
      (List.map
         (fun (strategy, rate, errors, injected) ->
           Printf.sprintf
             "{\"strategy\":%s,\"accept\":%s,\"protocol_errors\":%d,\"injected\":%d}"
             (Json.str strategy) (Json.float rate) errors injected)
         ms)
  ^ "]"

let faulted r entry fault =
  match Registry.fault_suite r.Request.rq_spec entry with
  | None ->
      Error
        (Printf.sprintf "protocol %S has no fault-aware realization"
           r.Request.rq_protocol)
  | Some suite ->
      let seed = r.Request.rq_spec.Registry.seed in
      let side tag cases =
        List.mapi (fun ci c -> fault_case_rate ~seed ~fault ~side:tag ~ci c) cases
      in
      let yes = side 0 suite.Registry.fs_yes in
      let no = side 1 suite.Registry.fs_no in
      let best_no =
        List.fold_left (fun a (_, rate, _, _) -> Float.max a rate) 0. no
      in
      let analytic_no =
        List.fold_left
          (fun a (c : Registry.fault_case) -> Float.max a c.Registry.fc_analytic)
          0. suite.Registry.fs_no
      in
      (* Faults may only help the prover by the statistical slack the
         sweep also allows; this is the invariant `qdp faults` gates
         on, reported per request here. *)
      let sound = best_no <= analytic_no +. 0.12 in
      Ok
        (Printf.sprintf
           "{\"protocol\":%s,\"name\":%s,\"mode\":\"faulted\",\"fault\":{\"kind\":%s,\"strength\":%s,\"turn\":%s,\"trials\":%d},\"yes\":%s,\"no\":%s,\"best_no_accept\":%s,\"analytic_no_accept\":%s,\"sound\":%b}"
           (Json.str r.Request.rq_protocol)
           (Json.str suite.Registry.fs_name)
           (Json.str fault.Request.f_kind)
           (Json.float fault.Request.f_strength)
           (match fault.Request.f_turn with
           | None -> "null"
           | Some t -> string_of_int t)
           fault.Request.f_trials (measures_json yes) (measures_json no)
           (Json.float best_no) (Json.float analytic_no) sound)

(* --- entry point --- *)

let run (r : Request.t) : (string, string) result =
  Qdp_obs.Metrics.incr obs_evals;
  let t0 = Qdp_obs.Clock.now () in
  let result =
    Qdp_obs.section "serve.eval"
    @@ fun () ->
    match Registry.find r.Request.rq_protocol with
    | None -> Error (Printf.sprintf "unknown protocol %S" r.Request.rq_protocol)
    | Some entry -> (
        match r.Request.rq_fault with
        | None -> ( try Ok (plain r entry) with e -> Error (Printexc.to_string e))
        | Some fault -> (
            try faulted r entry fault with e -> Error (Printexc.to_string e)))
  in
  Qdp_obs.Metrics.observe obs_eval_seconds (Qdp_obs.Clock.now () -. t0);
  result

let run_string s =
  match Request.of_string s with
  | Error msg -> Error msg
  | Ok r -> run r
