open Qdp_codes
open Qdp_network

type model = DMA | DQMA | DQMA_sep | DQMA_sep_sep | DQCMA

let pp_model fmt m =
  Format.pp_print_string fmt
    (match m with
    | DMA -> "dMA"
    | DQMA -> "dQMA"
    | DQMA_sep -> "dQMA^sep"
    | DQMA_sep_sep -> "dQMA^sep,sep"
    | DQCMA -> "dQCMA")

type ('i, 'p) protocol = {
  name : string;
  model : model;
  rounds : int;
  turns : int;
  repetitions : int;
  value : 'i -> bool;
  honest : 'i -> 'p option;
  accept : 'i -> 'p -> float;
  attacks : 'i -> (string * 'p) list;
  costs : 'i -> Report.costs;
}

type evaluation = {
  instance_is_yes : bool;
  honest_accept : float;
  best_attack : float;
  best_attack_name : string;
  meets_spec : bool;
}

let obs_evaluations = Qdp_obs.Metrics.counter "dqma.evaluations"
let obs_spec_violations = Qdp_obs.Metrics.counter "dqma.spec_violations"

let evaluate p inst =
  Qdp_obs.Metrics.incr obs_evaluations;
  Qdp_obs.section "dqma.evaluate"
    ~attrs:(fun () ->
      [ ("protocol", Qdp_obs.Trace.Str p.name);
        ("model", Qdp_obs.Trace.Str (Format.asprintf "%a" pp_model p.model));
        ("turns", Qdp_obs.Trace.Int p.turns);
        ("repetitions", Qdp_obs.Trace.Int p.repetitions) ])
  @@ fun () ->
  let amplify v = Sim.repeat_accept p.repetitions v in
  let instance_is_yes = p.value inst in
  let honest_accept =
    match p.honest inst with
    | Some prover -> amplify (p.accept inst prover)
    | None -> 0.
  in
  let best_attack, best_attack_name =
    Qdp_log.attack_search ~proto:"dqma" @@ fun () ->
    Qdp_log.best_candidate ~proto:p.name
      ~score:(fun prover -> amplify (p.accept inst prover))
      (p.attacks inst)
  in
  let meets_spec =
    if instance_is_yes then honest_accept >= 2. /. 3.
    else Float.max best_attack honest_accept <= 1. /. 3.
  in
  if not meets_spec then Qdp_obs.Metrics.incr obs_spec_violations;
  { instance_is_yes; honest_accept; best_attack; best_attack_name; meets_spec }

let pp_evaluation fmt (name, e) =
  Format.fprintf fmt
    "%-28s %-3s honest %.4f | best attack %9.3e (%s) | %s" name
    (if e.instance_is_yes then "YES" else "NO")
    e.honest_accept e.best_attack e.best_attack_name
    (if e.meets_spec then "spec OK" else "SPEC VIOLATED")

type pair_instance = Gf2.t * Gf2.t

type multi_instance = {
  graph : Graph.t;
  terminals : int list;
  inputs : Gf2.t array;
}

let eq_path (params : Eq_path.params) =
  {
    name = Printf.sprintf "EQ path (r=%d)" params.Eq_path.r;
    model = DQMA_sep;
    rounds = 1;
    turns = 1;
    repetitions = params.Eq_path.repetitions;
    value = (fun (x, y) -> Gf2.equal x y);
    honest =
      (fun (x, y) -> if Gf2.equal x y then Some Strategy.Honest else None);
    accept = (fun (x, y) s -> Eq_path.single_round_accept params x y s);
    attacks = (fun (x, y) -> Eq_path.attack_library params x y);
    costs = (fun _ -> Eq_path.costs params);
  }

let eq_tree (params : Eq_tree.params) =
  {
    name = "EQ^t tree";
    model = DQMA_sep;
    rounds = 1;
    turns = 1;
    repetitions = params.Eq_tree.repetitions;
    value =
      (fun mi -> Array.for_all (fun v -> Gf2.equal v mi.inputs.(0)) mi.inputs);
    honest =
      (fun mi ->
        if Array.for_all (fun v -> Gf2.equal v mi.inputs.(0)) mi.inputs then
          Some Eq_tree.Honest
        else None);
    accept =
      (fun mi s ->
        Eq_tree.single_round_accept params mi.graph ~terminals:mi.terminals
          ~inputs:mi.inputs s);
    attacks = (fun mi -> Eq_tree.attack_library ~inputs:mi.inputs);
    costs =
      (fun mi ->
        Eq_tree.costs params (Eq_tree.tree_of mi.graph ~terminals:mi.terminals));
  }

let gt (params : Gt.params) =
  {
    name = Printf.sprintf "GT path (r=%d)" params.Gt.r;
    model = DQMA_sep;
    rounds = 1;
    turns = 1;
    repetitions = params.Gt.repetitions;
    value = (fun (x, y) -> Gf2.compare_big_endian x y > 0);
    honest =
      (fun (x, y) ->
        if Gf2.compare_big_endian x y > 0 then Some (Gt.honest_prover x y)
        else None);
    accept = (fun (x, y) p -> Gt.single_round_accept params x y p);
    attacks = (fun (x, y) -> Gt.attack_library params x y);
    costs = (fun _ -> Gt.costs params);
  }

let relay (params : Relay.params) =
  {
    name = Printf.sprintf "EQ relay (r=%d)" params.Relay.r;
    model = DQMA_sep;
    rounds = 1;
    turns = 1;
    (* relay segments amplify internally; no outer repetition *)
    repetitions = 1;
    value = (fun (x, y) -> Gf2.equal x y);
    honest =
      (fun (x, y) ->
        if Gf2.equal x y then Some (Relay.honest_prover params x) else None);
    accept = (fun (x, y) p -> Relay.accept params x y p);
    attacks = (fun (x, y) -> Relay.attack_library params x y);
    costs = (fun _ -> Relay.costs params);
  }

let dqcma (params : Variants.params) =
  {
    name = Printf.sprintf "dQCMA EQ (r=%d)" params.Variants.r;
    model = DQCMA;
    rounds = 1;
    turns = 1;
    repetitions = params.Variants.repetitions;
    value = (fun (x, y) -> Gf2.equal x y);
    honest =
      (fun (x, y) ->
        if Gf2.equal x y then Some Variants.Honest_strings else None);
    accept = (fun (x, y) p -> Variants.single_accept params x y p);
    attacks =
      (fun (x, y) ->
        let r = params.Variants.r in
        let all v = Variants.Strings (Array.make (r - 1) v) in
        [ ("all-x", all x); ("all-y", all y) ]
        @ List.init (r - 1) (fun j ->
              ( Printf.sprintf "switch@%d" (j + 1),
                Variants.Strings
                  (Array.init (r - 1) (fun i -> if i < j then x else y)) )));
    costs = (fun _ -> Variants.costs params);
  }

let dma_trivial ~n ~r =
  {
    name = Printf.sprintf "dMA trivial (r=%d)" r;
    model = DMA;
    rounds = 1;
    turns = 1;
    repetitions = 1;
    value = (fun (x, y) -> Gf2.equal x y);
    honest =
      (fun (x, y) -> if Gf2.equal x y then Some (Runtime_dma.Honest x) else None);
    accept =
      (fun (x, y) p -> if fst (Runtime_dma.run ~r x y p) then 1.0 else 0.0);
    attacks =
      (fun (x, y) ->
        [ ("write-x", Runtime_dma.Honest x); ("write-y", Runtime_dma.Honest y) ]);
    costs =
      (fun _ ->
        {
          Report.local_proof_qubits = Runtime_dma.bits_per_node ~n;
          total_proof_qubits = (r + 1) * n;
          local_message_qubits = 2 * n;
          total_message_qubits = 2 * r * n;
          rounds = 1;
        });
  }

let rpls (params : Rpls.params) =
  {
    name = Printf.sprintf "RPLS EQ (r=%d)" params.Rpls.r;
    model = DMA;
    rounds = 1;
    turns = 1;
    repetitions = 1;
    value = (fun (x, y) -> Gf2.equal x y);
    honest =
      (fun (x, y) -> if Gf2.equal x y then Some (Rpls.Write x) else None);
    accept = (fun (x, y) p -> Rpls.accept_probability params x y p);
    attacks =
      (fun (x, y) ->
        let r = params.Rpls.r in
        [ ("write-x", Rpls.Write x); ("write-y", Rpls.Write y);
          ( "split",
            Rpls.Write_each
              (Array.init (r + 1) (fun j -> if j <= r / 2 then x else y)) ) ]);
    costs = (fun _ -> Rpls.costs params);
  }

let ieq (params : Ieq.params) =
  Ieq.validate params;
  {
    name = Printf.sprintf "iEQ path (%d-turn)" params.Ieq.turns;
    model = DMA;
    rounds = 1;
    turns = params.Ieq.turns;
    repetitions = params.Ieq.repetitions;
    value = (fun (x, y) -> Gf2.equal x y);
    honest =
      (fun (x, y) -> if Gf2.equal x y then Some Ieq.Answer_x else None);
    accept = (fun inst p -> Ieq.accept params inst p);
    attacks = (fun _ -> Ieq.attacks params);
    costs = (fun _ -> Ieq.costs params);
  }

let set_eq (params : Set_eq.params) =
  let sorted s =
    let l = List.map Gf2.to_string (Array.to_list s) in
    List.sort compare l
  in
  {
    name = Printf.sprintf "SetEq (k=%d, r=%d)" params.Set_eq.k params.Set_eq.r;
    model = DQMA_sep;
    rounds = 1;
    turns = 1;
    repetitions = params.Set_eq.repetitions;
    value = (fun (s, t) -> sorted s = sorted t);
    honest =
      (fun (s, t) -> if sorted s = sorted t then Some Strategy.All_left else None);
    accept = (fun (s, t) strat -> Set_eq.single_round_accept params s t strat);
    attacks =
      (fun _ ->
        [ ("all-left", Strategy.All_left); ("all-right", Strategy.All_right);
          ("geodesic", Strategy.Geodesic) ]);
    costs = (fun _ -> Set_eq.costs params);
  }

type rv_instance = {
  rv_graph : Graph.t;
  rv_terminals : int list;
  rv_inputs : Gf2.t array;
  rv_i : int;
  rv_j : int;
}

let rv (params : Rv.params) =
  let value ri = Rv.rv_value ~inputs:ri.rv_inputs ~i:ri.rv_i ~j:ri.rv_j in
  {
    name = "RV rank";
    model = DQMA_sep;
    rounds = 1;
    turns = 1;
    (* the per-path comparison amplification is internal to Rv.accept *)
    repetitions = 1;
    value;
    honest = (fun ri -> if value ri then Some Rv.Honest_directions else None);
    accept =
      (fun ri p ->
        Rv.accept params ri.rv_graph ~terminals:ri.rv_terminals
          ~inputs:ri.rv_inputs ~i:ri.rv_i ~j:ri.rv_j p);
    attacks =
      (fun ri ->
        (* every direction claim passing the root's count check; the
           rest are rejected deterministically *)
        let t = Array.length ri.rv_inputs in
        List.filter_map
          (fun m ->
            let dirs = Array.init t (fun k -> m land (1 lsl k) <> 0) in
            let count = ref 0 in
            Array.iteri (fun k b -> if k <> ri.rv_i && b then incr count) dirs;
            if !count <> t - ri.rv_j then None
            else
              Some
                ( Printf.sprintf "claim=%s"
                    (String.concat ""
                       (List.init t (fun k -> if dirs.(k) then "1" else "0"))),
                  Rv.Claim dirs ))
          (List.init (1 lsl t) Fun.id));
    costs =
      (fun ri ->
        let tr =
          Spanning_tree.build_rooted_at ri.rv_graph ~terminals:ri.rv_terminals
            ~root_terminal:ri.rv_i
        in
        Rv.costs params tr ~t:(Array.length ri.rv_inputs));
  }

let oneway_forall (proto : Qdp_commcc.Oneway.t)
    (params : Oneway_compiler.params) =
  let value mi =
    Qdp_commcc.Problems.forall_t proto.Qdp_commcc.Oneway.problem mi.inputs
  in
  {
    name = Printf.sprintf "forall_t %s" proto.Qdp_commcc.Oneway.name;
    model = DQMA_sep;
    rounds = 1;
    turns = 1;
    repetitions = params.Oneway_compiler.repetitions;
    value;
    honest = (fun mi -> if value mi then Some Oneway_compiler.Honest else None);
    accept =
      (fun mi p ->
        Oneway_compiler.single_accept params proto mi.graph
          ~terminals:mi.terminals ~inputs:mi.inputs p);
    attacks =
      (fun mi ->
        let t = Array.length mi.inputs in
        List.concat
          (List.init t (fun k ->
               [
                 ( Printf.sprintf "constant-x%d" (k + 1),
                   Oneway_compiler.Constant_of_terminal k );
                 ( Printf.sprintf "geodesic->x%d" (k + 1),
                   Oneway_compiler.Depth_geodesic k );
               ])));
    costs =
      (fun mi ->
        Oneway_compiler.costs params proto mi.graph ~terminals:mi.terminals);
  }

type packed = Packed : ('i, 'p) protocol * 'i -> packed

let evaluate_packed (Packed (p, inst)) = (p.name, evaluate p inst)

(* ------------------------------------------------------------------ *)
(* Backends and the differential harness                               *)
(* ------------------------------------------------------------------ *)

type ('i, 'p) network = 'i -> 'p -> Random.State.t -> bool

type ('i, 'p) faulty_network =
  'i ->
  'p ->
  Random.State.t ->
  Fault_env.t ->
  Runtime.verdict array * Runtime.stats

type ('i, 'p) backend = Analytic | Network of ('i, 'p) network

let obs_crossval_checks = Qdp_obs.Metrics.counter "crossval.checks"

let obs_crossval_disagreements =
  Qdp_obs.Metrics.counter "crossval.disagreements"

let obs_crossval_runs = Qdp_obs.Metrics.counter "crossval.network_runs"

let backend_accept ?(trials = 2000) ~st backend p inst prover =
  match backend with
  | Analytic -> p.accept inst prover
  | Network network ->
      let run = network inst prover in
      let hits =
        Qdp_dist.monte_carlo_hits ~label:"xval" ~st ~trials (fun st ->
            Qdp_obs.Metrics.incr obs_crossval_runs;
            run st)
      in
      float_of_int hits /. float_of_int trials

type check = {
  check_strategy : string;
  analytic : float;
  sampled : float;
  trials : int;
  tolerance : float;
  agree : bool;
}

let cross_validate ?(trials = 2000) ?(z = 5.) ~st ~network p inst =
  Qdp_obs.section "cross_validate"
    ~attrs:(fun () -> [ ("protocol", Qdp_obs.Trace.Str p.name) ])
  @@ fun () ->
  let provers =
    (match p.honest inst with Some h -> [ ("honest", h) ] | None -> [])
    @ p.attacks inst
  in
  (* One sampling state per strategy, split off [st] in list order on
     the calling domain, so the per-strategy comparisons can run on
     any number of domains without perturbing each other's randomness
     — verdicts are byte-identical at every [--jobs] value. *)
  let tagged =
    Array.of_list
      (List.map (fun (name, prover) -> (name, prover, Random.State.split st)) provers)
  in
  (* ticks per network run: strategies x trials units in total *)
  let progress =
    Qdp_obs.Progress.start
      ~total:(Array.length tagged * trials)
      ("xval/" ^ p.name)
  in
  let checks =
    Qdp_dist.map_shards ~label:("xval/" ^ p.name) ~n:(Array.length tagged)
      (fun i ->
         let name, prover, pst = tagged.(i) in
         let analytic = p.accept inst prover in
         (* prepared once per strategy, on whichever domain or worker
            runs this shard; the trials only draw coins *)
         let run = network inst prover in
         let hits =
           Qdp_dist.monte_carlo_hits ~st:pst ~trials (fun st ->
               Qdp_obs.Metrics.incr obs_crossval_runs;
               Qdp_obs.Progress.step progress;
               run st)
         in
         let sampled = float_of_int hits /. float_of_int trials in
         (* a deterministic verdict (p in {0, 1}) must reproduce exactly;
            otherwise the analytic value must fall inside the z-sigma
            Wilson score interval of the sampled frequency *)
         let deterministic = analytic < 1e-9 || analytic > 1. -. 1e-9 in
         let iv = Runtime.wilson ~z ~hits ~trials () in
         let tolerance =
           if deterministic then 1e-6
           else (iv.Runtime.upper -. iv.Runtime.lower) /. 2.
         in
         let agree =
           if deterministic then Float.abs (analytic -. sampled) <= 1e-6
           else analytic >= iv.Runtime.lower && analytic <= iv.Runtime.upper
         in
         Qdp_obs.Metrics.incr obs_crossval_checks;
         if not agree then Qdp_obs.Metrics.incr obs_crossval_disagreements;
         { check_strategy = name; analytic; sampled; trials; tolerance; agree })
  in
  Qdp_obs.Progress.finish progress;
  Array.to_list checks

let pp_check fmt c =
  Format.fprintf fmt "%-16s analytic %.6f | sampled %.6f (%d trials) | %s"
    c.check_strategy c.analytic c.sampled c.trials
    (if c.agree then "agree" else "DISAGREE")
