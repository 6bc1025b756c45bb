(* qdp — command-line driver for the dQMA protocols.

   Every protocol subcommand is generated from the registry
   (Qdp_core.Registry): one entry per protocol, no per-protocol
   dispatch here.

   Examples:
     qdp list
     qdp eq    -n 64 -r 8 -x 1010... -y 1010...
     qdp gt    -n 32 -r 6 --seed 3
     qdp eqt   -n 32 --topology star -t 5
     qdp xval  --protocol eq --trials 500
     qdp check *)

open Cmdliner
open Qdp_codes
open Qdp_core

let () = Protocols.init ()

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.Src.set_level Qdp_log.src (if verbose then Some Logs.Debug else None)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Trace the attack searches.")

let with_obs ~cmd = Cli.with_obs ~tool:"qdp" ~cmd

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let n_arg =
  Arg.(
    value
    & opt int Registry.default_spec.Registry.n
    & info [ "n"; "bits" ] ~docv:"N" ~doc:"Input length in bits.")

let r_arg =
  Arg.(
    value
    & opt int Registry.default_spec.Registry.r
    & info [ "r"; "length" ] ~docv:"R" ~doc:"Path length / radius.")

let t_arg =
  Arg.(
    value
    & opt int Registry.default_spec.Registry.t
    & info [ "t"; "terminals" ] ~docv:"T"
        ~doc:"Number of terminals (elements per set for seteq).")

let d_arg =
  Arg.(
    value
    & opt int Registry.default_spec.Registry.d
    & info [ "d"; "distance" ] ~docv:"D"
        ~doc:"Hamming tolerance / RPLS parity checks.")

let reps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "k"; "repetitions" ] ~docv:"K"
        ~doc:"Parallel repetitions (default: the paper's O(r^2) choice).")

let x_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "x"; "left" ] ~docv:"BITS"
        ~doc:"First input as a 0/1 string (default: drawn from --seed).")

let y_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "y"; "right" ] ~docv:"BITS"
        ~doc:"Second input as a 0/1 string (default: drawn from --seed).")

let topology_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("star", Registry.Star);
             ("path", Registry.Path);
             ("cycle", Registry.Cycle);
             ("grid", Registry.Grid);
           ])
        Registry.Star
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:"Network topology: star, path, cycle or grid.")

let parse_input ~n = function
  | None -> None
  | Some bits ->
      let v = Gf2.of_string bits in
      if Gf2.length v <> n then failwith "inputs must have exactly --n bits";
      Some v

(* The one runner every protocol subcommand shares: build the spec
   from the flags, let the entry derive its yes/no demo instances, and
   report the uniform evaluation of both. *)
let run_entry entry verbose seed n r t d reps topo x y obs =
  setup_logs verbose;
  let info = Registry.info entry in
  with_obs ~cmd:info.Registry.info_id obs @@ fun () ->
  let spec =
    { Registry.seed; n; r; t; d; repetitions = reps; topology = topo }
  in
  let x = parse_input ~n x and y = parse_input ~n y in
  let name, yes_eval, no_eval, costs = Registry.evaluate_demo ?x ?y spec entry in
  Format.printf "%s [%a] — %s (%s)@." name Dqma.pp_model info.Registry.info_model
    info.Registry.info_summary info.Registry.info_reference;
  Format.printf "costs: %a@." Report.pp_costs costs;
  Format.printf "%a@." Dqma.pp_evaluation (name, yes_eval);
  Format.printf "%a@." Dqma.pp_evaluation (name, no_eval)

let entry_cmd entry =
  let info = Registry.info entry in
  Cmd.v
    (Cmd.info info.Registry.info_id
       ~doc:
         (Printf.sprintf "%s (%s)." info.Registry.info_summary
            info.Registry.info_reference))
    Term.(
      const (run_entry entry)
      $ verbose_arg $ seed_arg $ n_arg $ r_arg $ t_arg $ d_arg $ reps_arg
      $ topology_arg $ x_arg $ y_arg $ Cli.obs_term)

let list_cmd =
  let run () =
    Format.printf "%-7s %-22s %-11s %-5s %-9s %-7s %-6s %-18s %s@." "ID"
      "PROTOCOL" "MODEL" "TURNS" "BACKENDS" "FAULTS" "SUITE" "REFERENCE" "COST";
    List.iter
      (fun entry ->
        let i = Registry.info entry in
        Format.printf "%-7s %-22s %-11s %-5d %-9s %-7s %-6s %-18s %s@."
          i.Registry.info_id i.Registry.info_name
          (Format.asprintf "%a" Dqma.pp_model i.Registry.info_model)
          i.Registry.info_turns
          (if i.Registry.info_network then "both" else "analytic")
          (if i.Registry.info_fault_tolerant then "yes" else "-")
          (if i.Registry.info_conformance then "yes" else "-")
          i.Registry.info_reference i.Registry.info_cost)
      (Registry.all ())
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List every registered protocol.")
    Term.(const run $ const ())

let check_cmd =
  let run seed obs =
    with_obs ~cmd:"check" obs @@ fun () ->
    let suite = Registry.demo_suite ~seed in
    let failures = ref 0 in
    List.iter
      (fun packed ->
        let name, e = Dqma.evaluate_packed packed in
        Format.printf "%a@." Dqma.pp_evaluation (name, e);
        if not e.Dqma.meets_spec then incr failures)
      suite;
    Format.printf "%d pairs evaluated, %d spec violations@." (List.length suite)
      !failures;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Run the conformance suite over every protocol.")
    Term.(const run $ seed_arg $ Cli.obs_term)

let xval_cmd =
  let trials_arg =
    Arg.(
      value & opt int 400
      & info [ "trials" ] ~docv:"TRIALS"
          ~doc:"Network samples per strategy.")
  in
  let protocol_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "protocol" ] ~docv:"ID"
          ~doc:"Cross-validate a single protocol (default: all with a \
                network backend).")
  in
  let run seed n r t d reps topo trials protocol obs =
    with_obs ~cmd:"xval" obs @@ fun () ->
    let spec =
      { Registry.seed; n; r; t; d; repetitions = reps; topology = topo }
    in
    let entries =
      match protocol with
      | None -> Registry.all ()
      | Some id -> (
          match Registry.find id with
          | Some e -> [ e ]
          | None ->
              failwith
                (Printf.sprintf "unknown protocol %S; try: qdp list" id))
    in
    let st = Random.State.make [| seed; 7 |] in
    let checks = ref 0 and disagreements = ref 0 in
    List.iter
      (fun entry ->
        let i = Registry.info entry in
        match Registry.cross_validate_demo ~trials ~st spec entry with
        | None ->
            if protocol <> None then
              Format.printf "%-7s has no network backend@." i.Registry.info_id
        | Some results ->
            List.iter
              (fun (label, cs) ->
                List.iter
                  (fun c ->
                    incr checks;
                    if not c.Dqma.agree then incr disagreements;
                    Format.printf "%-7s %-3s %a@." i.Registry.info_id label
                      Dqma.pp_check c)
                  cs)
              results)
      entries;
    Format.printf "%d comparisons, %d disagreements@." !checks !disagreements;
    if !disagreements > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "xval"
       ~doc:
         "Differentially cross-validate the analytic engine against the \
          message-passing runtime.")
    Term.(
      const run $ seed_arg $ n_arg $ r_arg $ t_arg $ d_arg $ reps_arg
      $ topology_arg $ trials_arg $ protocol_arg $ Cli.obs_term)

let faults_cmd =
  let open Qdp_faults in
  let trials_arg =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~docv:"TRIALS"
          ~doc:"Monte-Carlo runs per (strategy, strength) point.")
  in
  let points_arg =
    Arg.(
      value & opt int 11
      & info [ "points" ] ~docv:"POINTS"
          ~doc:"Grid points between 0 and --max-strength.")
  in
  let max_strength_arg =
    Arg.(
      value & opt float 0.5
      & info [ "max-strength" ] ~docv:"P"
          ~doc:"Largest fault strength swept.")
  in
  let protocol_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "protocol" ] ~docv:"ID"
          ~doc:
            "Sweep only this protocol (repeatable; default: every \
             fault-tolerant entry).")
  in
  let kind_arg =
    let kind_conv = Arg.enum (List.map (fun k -> (Plan.name k, k)) Plan.all) in
    Arg.(
      value
      & opt_all kind_conv []
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Sweep only this fault kind (repeatable; default: every kind \
             applicable to the entry's link type).")
  in
  let recovery_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("reject-on-timeout", Plan.Reject_on_timeout);
               ("degraded-verdict", Plan.Degraded_verdict);
               ("retry", Plan.Retry 2);
             ])
          Plan.Reject_on_timeout
      & info [ "recovery" ] ~docv:"MODE"
          ~doc:
            "Recovery discipline: reject-on-timeout, degraded-verdict, or \
             retry (budget 2, triggered by detected faults only).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_faults.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the JSON decay curves.")
  in
  let turn_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "turn" ] ~docv:"TURN"
          ~doc:
            "Aim every fault plan at one 1-based entry of the protocol's \
             turn schedule; delivery-time faults then fire only inside \
             that turn (default: every turn).")
  in
  let run seed n r t d reps topo trials points max_strength protocols kinds
      recovery turn out obs =
    with_obs ~cmd:"faults" obs @@ fun () ->
    let spec =
      { Registry.seed; n; r; t; d; repetitions = reps; topology = topo }
    in
    let cfg =
      {
        Sweep.seed;
        trials;
        grid = Sweep.default_grid ~points ~max_strength ();
        recovery;
        protocols = (match protocols with [] -> None | ids -> Some ids);
        kinds = (match kinds with [] -> None | ks -> Some ks);
        turn;
        spec;
      }
    in
    let sw = Sweep.run cfg in
    Format.printf "@[<v>%a@]@." Sweep.pp_summary sw;
    Sweep.write_json out sw;
    Format.printf "decay curves written to %s@." out;
    if Sweep.violations sw > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Sweep fault strengths over every fault-tolerant protocol and \
          verify graceful degradation: soundness must never exceed the \
          noiseless bound (contractivity), completeness must decay \
          monotonically.")
    Term.(
      const run $ seed_arg $ n_arg $ r_arg $ t_arg $ d_arg $ reps_arg
      $ topology_arg $ trials_arg $ points_arg $ max_strength_arg
      $ protocol_arg $ kind_arg $ recovery_arg $ turn_arg $ out_arg $ Cli.obs_term)

(* qdp dist chaos — the supervised multi-process path under seeded
   fault injection, byte-compared against the in-process baseline.
   The chaos pass runs first: fork is only legal while the Qdp_par
   domain pool has never started, and the baseline may start it. *)
let dist_cmd =
  let open Qdp_faults in
  let chaos_default = 0.5 in
  let trials_arg =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~docv:"TRIALS"
          ~doc:"Network samples per cross-validation strategy.")
  in
  (* Deterministic fingerprint of the full sharded workload: every
     cross-validation check plus the fault-sweep JSON. *)
  let digest_workload ~seed ~trials =
    let spec = { Registry.default_spec with Registry.seed; n = 12; r = 3; t = 3 } in
    let st = Random.State.make [| seed; 7 |] in
    let buf = Buffer.create 4096 in
    List.iter
      (fun entry ->
        match Registry.cross_validate_demo ~trials ~st spec entry with
        | None -> ()
        | Some results ->
            let id = (Registry.info entry).Registry.info_id in
            List.iter
              (fun (label, cs) ->
                List.iter
                  (fun c ->
                    Buffer.add_string buf
                      (Printf.sprintf "%s %s %s %.17g %.17g %d %.17g %b\n" id
                         label c.Dqma.check_strategy c.Dqma.analytic
                         c.Dqma.sampled c.Dqma.trials c.Dqma.tolerance
                         c.Dqma.agree))
                  cs)
              results)
      (Registry.all ());
    let cfg =
      {
        Sweep.seed;
        trials = 60;
        grid = Sweep.default_grid ~points:4 ~max_strength:0.4 ();
        recovery = Plan.Reject_on_timeout;
        protocols = None;
        kinds = None;
        turn = None;
        spec;
      }
    in
    Buffer.add_string buf (Sweep.to_json (Sweep.run cfg));
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let counter snap name =
    match Qdp_obs.Metrics.find snap name with
    | Some (Qdp_obs.Metrics.Counter_v v) -> v
    | _ -> 0
  in
  let run seed trials obs =
    with_obs ~cmd:"dist-chaos" obs @@ fun () ->
    let workers = match obs.Cli.workers with Some w when w > 0 -> w | _ -> 4 in
    let p = match obs.chaos with Some p when p > 0. -> p | _ -> chaos_default in
    (* tight shard deadline so injected hangs resolve quickly *)
    if obs.timeout = None then Qdp_dist.set_shard_timeout 2.0;
    Qdp_obs.with_enabled true @@ fun () ->
    let before = Qdp_obs.Metrics.snapshot () in
    Qdp_dist.set_workers workers;
    Qdp_dist.set_chaos p;
    Qdp_dist.set_chaos_seed seed;
    Format.printf "chaos pass: %d workers, p=%g, seed %d ...@." workers p seed;
    let chaotic = digest_workload ~seed ~trials in
    let after = Qdp_obs.Metrics.snapshot () in
    Qdp_dist.set_workers 0;
    Qdp_dist.set_chaos 0.;
    Format.printf "baseline pass: in-process ...@.";
    let baseline = digest_workload ~seed ~trials in
    let d name = counter after name - counter before name in
    Format.printf
      "@[<v>recovery matrix (chaos pass):@,\
      \  crash   -> detected %4d  (waitpid/EOF)      retried or degraded@,\
      \  hang    -> detected %4d  (shard deadline)   killed + reassigned@,\
      \  corrupt -> detected %4d  (CRC/unmarshal)    killed + reassigned@,\
      \  recovery: %d shard retries, %d workers respawned, %d shards \
       degraded in-process@,\
      \  traffic:  %d shards dispatched, %d results accepted, %d duplicates, \
       %d fallbacks@]@."
      (d "dist.crashes") (d "dist.hangs") (d "dist.corrupt") (d "dist.retries")
      (d "dist.respawns") (d "dist.degraded") (d "dist.tasks")
      (d "dist.results") (d "dist.duplicates") (d "dist.fallbacks");
    Format.printf "baseline digest %s@,chaos    digest %s@." baseline chaotic;
    if chaotic <> baseline then begin
      Format.printf "MISMATCH: chaos run diverged from the baseline@.";
      exit 1
    end;
    Format.printf "byte-identical under chaos@."
  in
  let chaos_cmd =
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Run the sharded workloads (cross-validation + fault sweep) on \
            supervised worker processes with seeded crash/hang/corruption \
            injection, verify byte-identity against the in-process \
            baseline, and print the recovery matrix; exit 1 on divergence.")
      Term.(const run $ seed_arg $ trials_arg $ Cli.obs_term)
  in
  Cmd.group
    (Cmd.info "dist"
       ~doc:"Multi-process execution: supervision and chaos testing.")
    [ chaos_cmd ]

(* qdp turns — the turn-reduction experiment over the interactive
   equality family: acceptance and certificate size at 3, 2 and 1
   turns, analytic vs sampled, into BENCH_turns.json. *)
let turns_cmd =
  let trials_arg =
    Arg.(
      value & opt int 2000
      & info [ "trials" ] ~docv:"TRIALS"
          ~doc:"Monte-Carlo runs per (variant, side) cell.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_turns.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the JSON comparison.")
  in
  let run seed n r trials out obs =
    with_obs ~cmd:"turns" obs @@ fun () ->
    let t = Turns_exp.run ~seed ~n ~r ~trials () in
    Format.printf "@[<v>%a@]@." Turns_exp.pp t;
    Turns_exp.write_json out t;
    Format.printf "turn-reduction comparison written to %s@." out
  in
  Cmd.v
    (Cmd.info "turns"
       ~doc:
         "Compare the interactive equality family across turn counts \
          (arXiv:2210.01390 turn reduction): acceptance and soundness, \
          analytic vs sampled through the turn-based engine, against the \
          certificate-size blowup of the fewer-turn compilation.")
    Term.(const run $ seed_arg $ n_arg $ r_arg $ trials_arg $ out_arg $ Cli.obs_term)

(* qdp perf diff OLD NEW — the noise-aware comparator over the
   BENCH_perf / BENCH_obs artifacts; exit 1 on
   regression (the CI perf gate). *)
let perf_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline artifact (JSON).")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Candidate artifact (JSON).")
  in
  let threshold_arg =
    Arg.(
      value
      & opt float Qdp_obs.Perf_diff.default_config.Qdp_obs.Perf_diff.threshold
      & info [ "threshold" ] ~docv:"T"
          ~doc:
            "Default relative noise band: a metric regresses when new/old \
             exceeds 1 + $(docv) (and improves below 1 / (1 + $(docv))).")
  in
  let group_threshold_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string float) []
      & info [ "group-threshold" ] ~docv:"GROUP=T"
          ~doc:
            "Per-group threshold override (repeatable), e.g. \
             $(b,--group-threshold fault_sweep=0.5).")
  in
  let min_seconds_arg =
    Arg.(
      value
      & opt float
          Qdp_obs.Perf_diff.default_config.Qdp_obs.Perf_diff.min_seconds
      & info [ "min-seconds" ] ~docv:"S"
          ~doc:
            "Min-runtime floor: pairs where both sides measured less than \
             $(docv) seconds are reported but never flagged.")
  in
  let run old_file new_file threshold group_thresholds min_seconds =
    match
      ( Qdp_obs.Perf_diff.load old_file,
        Qdp_obs.Perf_diff.load new_file )
    with
    | exception Failure msg ->
        Printf.eprintf "qdp perf diff: %s\n" msg;
        exit 2
    | old_, new_ ->
        let cfg =
          { Qdp_obs.Perf_diff.threshold; group_thresholds; min_seconds }
        in
        let r = Qdp_obs.Perf_diff.diff cfg ~old_ ~new_ in
        Format.printf "%a@?" Qdp_obs.Perf_diff.pp_report r;
        (* No-slowdown self-check on the candidate: a parallel path
           losing to its own sequential baseline is a dispatch bug
           even when it is no worse than the OLD artifact. *)
        let slow = Qdp_obs.Perf_diff.slowdowns_of_file cfg new_file in
        List.iter
          (fun s ->
            Printf.printf
              "%-44s parallel %.6gs vs sequential %.6gs (%.3fx)  SLOWDOWN\n"
              s.Qdp_obs.Perf_diff.s_group s.Qdp_obs.Perf_diff.s_parallel
              s.Qdp_obs.Perf_diff.s_sequential s.Qdp_obs.Perf_diff.s_ratio)
          slow;
        let n = Qdp_obs.Perf_diff.regressions r in
        let ns = List.length slow in
        if n > 0 || ns > 0 then begin
          if n > 0 then
            Printf.eprintf "qdp perf diff: %d regression(s) over threshold\n" n;
          if ns > 0 then
            Printf.eprintf
              "qdp perf diff: %d group(s) where parallel loses to sequential\n"
              ns;
          exit 1
        end
  in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two performance artifacts (BENCH_perf.json or \
            BENCH_obs.json) with per-group noise \
            thresholds and a min-runtime floor; exit 1 when any metric \
            regresses.")
      Term.(
        const run $ old_arg $ new_arg $ threshold_arg $ group_threshold_arg
        $ min_seconds_arg)
  in
  (* qdp perf shape FILE — print the key-path skeleton of a JSON
     artifact (sorted, values elided).  CI diffs the skeletons of two
     runs to pin an artifact's shape without pinning its measured
     values. *)
  let shape_cmd =
    let file_arg =
      Arg.(
        required
        & pos 0 (some file) None
        & info [] ~docv:"FILE" ~doc:"JSON artifact.")
    in
    let run file =
      let contents =
        let ic = open_in_bin file in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Qdp_obs.Json.parse contents with
      | exception Qdp_obs.Json.Parse_error msg ->
          Printf.eprintf "qdp perf shape: %s\n" msg;
          exit 2
      | j ->
          let tag = function
            | Qdp_obs.Json.Null -> "null"
            | Qdp_obs.Json.Bool _ -> "bool"
            | Qdp_obs.Json.Num _ -> "number"
            | Qdp_obs.Json.String _ -> "string"
            | Qdp_obs.Json.Arr _ -> "array"
            | Qdp_obs.Json.Obj _ -> "object"
          in
          let rec walk prefix j acc =
            match j with
            | Qdp_obs.Json.Obj kvs ->
                List.fold_left
                  (fun acc (k, v) -> walk (prefix ^ "." ^ k) v acc)
                  acc kvs
            | Qdp_obs.Json.Arr xs ->
                List.fold_left (fun acc v -> walk (prefix ^ "[]") v acc) acc xs
            | leaf -> (prefix ^ ": " ^ tag leaf) :: acc
          in
          List.iter print_endline (List.sort_uniq compare (walk "$" j []))
    in
    Cmd.v
      (Cmd.info "shape"
         ~doc:
           "Print the sorted key-path skeleton of a JSON artifact (values \
            elided) — diff two skeletons to check an artifact's shape is \
            stable across runs.")
      Term.(const run $ file_arg)
  in
  Cmd.group
    (Cmd.info "perf" ~doc:"Performance comparison and regression gating.")
    [ diff_cmd; shape_cmd ]

(* qdp serve — the always-on verification daemon. *)
let serve_default = Qdp_serve.Server.default_config

let socket_arg =
  Arg.(
    value
    & opt string serve_default.Qdp_serve.Server.socket_path
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on.")

let serve_cmd =
  let queue_arg =
    Arg.(
      value
      & opt int serve_default.Qdp_serve.Server.queue_limit
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Admission control: requests queued beyond $(docv) get an \
             immediate structured overload reject.")
  in
  let cache_arg =
    Arg.(
      value
      & opt int serve_default.Qdp_serve.Server.cache_capacity
      & info [ "cache" ] ~docv:"N"
          ~doc:"Shared LRU response cache capacity (entries).")
  in
  let batch_arg =
    Arg.(
      value
      & opt int serve_default.Qdp_serve.Server.batch_max
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Max requests evaluated per event-loop iteration (duplicates \
             within a batch evaluate once).")
  in
  let sessions_arg =
    Arg.(
      value
      & opt int serve_default.Qdp_serve.Server.max_sessions
      & info [ "max-sessions" ] ~docv:"N" ~doc:"Max concurrent sessions.")
  in
  let run socket queue_limit cache batch sessions o =
    setup_logs false;
    with_obs ~cmd:"serve" o @@ fun () ->
    let config =
      {
        Qdp_serve.Server.socket_path = socket;
        queue_limit;
        cache_capacity = cache;
        batch_max = batch;
        max_sessions = sessions;
      }
    in
    Printf.eprintf "qdp serve: listening on %s (pid %d)\n%!" socket
      (Unix.getpid ());
    Qdp_serve.Server.run ~config ();
    Printf.eprintf "qdp serve: drained\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the always-on verification daemon: concurrent \
          evaluate-protocol requests over a Unix-domain socket, with a \
          shared LRU verdict cache, request batching, bounded-queue \
          admission control and graceful drain on SIGTERM.")
    Term.(
      const run $ socket_arg $ queue_arg $ cache_arg $ batch_arg
      $ sessions_arg $ Cli.obs_term)

(* qdp load — the load generator / determinism checker. *)
let load_cmd =
  let clients_arg =
    Arg.(
      value
      & opt int Qdp_serve.Load.default_config.Qdp_serve.Load.clients
      & info [ "clients" ] ~docv:"N"
          ~doc:"Concurrent client sessions (one in-flight request each).")
  in
  let rps_arg =
    Arg.(
      value
      & opt float Qdp_serve.Load.default_config.Qdp_serve.Load.rps
      & info [ "rps" ] ~docv:"R" ~doc:"Aggregate target request rate.")
  in
  let duration_arg =
    Arg.(
      value
      & opt float Qdp_serve.Load.default_config.Qdp_serve.Load.duration
      & info [ "duration" ] ~docv:"S" ~doc:"Seconds of paced sending.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the BENCH_serve.json report to $(docv).")
  in
  let direct_arg =
    Arg.(
      value & flag
      & info [ "direct" ]
          ~doc:
            "Skip the server: evaluate the same request mix in-process and \
             print its verdict digest.  A live run's digest must match — \
             the end-to-end determinism check.")
  in
  let run socket clients rps duration seed out direct o =
    setup_logs false;
    with_obs ~cmd:"load" o @@ fun () ->
    let config =
      { Qdp_serve.Load.socket; clients; rps; duration; seed }
    in
    if direct then
      Printf.printf "verdict_digest %s\n"
        (Qdp_serve.Load.direct_digest ~config ())
    else begin
      match Qdp_serve.Load.run ~config () with
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "qdp load: cannot reach %s: %s\n" socket
            (Unix.error_message e);
          exit 2
      | r ->
          let json = Qdp_serve.Load.to_json r in
          (match out with
          | Some file ->
              let oc = open_out file in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () -> output_string oc json)
          | None -> ());
          Printf.printf
            "sent %d  replies %d  overload_rejects %d  errors %d\n"
            r.Qdp_serve.Load.lr_sent r.Qdp_serve.Load.lr_replies
            r.Qdp_serve.Load.lr_overloads r.Qdp_serve.Load.lr_errors;
          Printf.printf "throughput %.1f req/s  p50 %.4fs  p99 %.4fs\n"
            r.Qdp_serve.Load.lr_throughput_rps r.Qdp_serve.Load.lr_p50_s
            r.Qdp_serve.Load.lr_p99_s;
          Printf.printf "verdict_digest %s\n" r.Qdp_serve.Load.lr_digest;
          if r.Qdp_serve.Load.lr_replies + r.Qdp_serve.Load.lr_errors
             < r.Qdp_serve.Load.lr_sent - r.Qdp_serve.Load.lr_overloads
          then begin
            Printf.eprintf "qdp load: some requests never got a response\n";
            exit 1
          end
    end
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive a running $(b,qdp serve) daemon with paced concurrent \
          requests; report throughput, p50/p99 latency and a \
          scheduling-insensitive verdict digest (compare with \
          $(b,--direct) to check server determinism end to end).")
    Term.(
      const run $ socket_arg $ clients_arg $ rps_arg $ duration_arg
      $ seed_arg $ out_arg $ direct_arg $ Cli.obs_term)

let main =
  Cmd.group
    (Cmd.info "qdp" ~version:"1.0.0"
       ~doc:
         "Distributed quantum Merlin-Arthur protocols \
          (Hasegawa-Kundu-Nishimura, PODC 2024).")
    (List.map entry_cmd (Registry.all ())
    @ [
        list_cmd;
        check_cmd;
        xval_cmd;
        faults_cmd;
        dist_cmd;
        turns_cmd;
        perf_cmd;
        serve_cmd;
        load_cmd;
      ])

let () = exit (Cmd.eval main)
