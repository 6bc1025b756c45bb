(* Execution and observability flags shared by bin/qdp.exe (every
   subcommand) and bin/tables.exe: one cmdliner term, one setup path. *)

open Cmdliner

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Enable observability and write a JSON metrics snapshot (counters, \
           gauges, histograms) to $(docv) on exit.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable observability and write the span trace (one JSON object per \
           line) to $(docv) on exit.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sharded grids (default: $(b,QDP_JOBS) or \
           the machine's recommended domain count; 1 = fully sequential). \
           Results are byte-identical at every value.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Enable the scoped profiler; on exit print the flat profile (with \
           the call count of every section, dense kernels included), the \
           caller->callee attribution tree and the per-domain busy/idle \
           split to stderr.")

let progress_arg =
  Arg.(
    value
    & opt ~vopt:(Some 1.) (some float) None
    & info [ "progress" ] ~docv:"SECONDS"
        ~doc:
          "Emit live progress heartbeats for long grids to stderr, at most \
           one per $(docv) (default 1; 0 = every tick).")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker processes for the sharded grids (default: $(b,QDP_WORKERS) \
           or 0 = in-process).  The coordinator supervises them — crash, \
           hang and corruption recovery with retry/backoff — and results \
           are byte-identical to $(b,--workers 0) at every value.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Deadline for one protocol execution and for one worker shard \
           (default: $(b,QDP_TIMEOUT) or 300 for executions, \
           $(b,QDP_DIST_TIMEOUT) or 30 for shards; <= 0 disables).  An \
           overrun execution rejects (timeout-as-reject); an overrun shard \
           is killed and reassigned.")

let chaos_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "chaos" ] ~docv:"P"
        ~doc:
          "Chaos injection probability (default: $(b,QDP_CHAOS) or 0).  \
           Each worker shard attempt crashes, hangs or corrupts its reply \
           with probability $(docv), at seeded points — results must stay \
           byte-identical.")

let model_arg =
  Arg.(
    value
    & opt (enum [ ("off", ()) ]) ()
    & info [ "model" ] ~docv:"MODE"
        ~doc:
          "Accepted for compatibility; $(b,off) is the only value.  Dense \
           kernels dispatch by the static MAC cutoff alone.  Kept because \
           the end-to-end benchmark starts $(b,qdp serve) with \
           $(b,--model off).")

let progress_json_arg =
  Arg.(
    value & flag
    & info [ "progress-json" ]
        ~doc:
          "Format progress heartbeats as single-line JSON instead of human \
           text.")

type obs_opts = {
  jobs : int option;
  workers : int option;
  timeout : float option;
  chaos : float option;
  metrics : string option;
  trace : string option;
  profile : bool;
  progress : float option;
  progress_json : bool;
}

let obs_term =
  let mk jobs workers timeout chaos metrics trace profile progress
      progress_json () =
    {
      jobs;
      workers;
      timeout;
      chaos;
      metrics;
      trace;
      profile;
      progress;
      progress_json;
    }
  in
  Term.(
    const mk $ jobs_arg $ workers_arg $ timeout_arg $ chaos_arg $ metrics_arg
    $ trace_arg $ profile_arg $ progress_arg $ progress_json_arg
    $ model_arg)

(* Run [f] under a root section [cmd]; enable the switches the flags
   ask for and dump the requested outputs afterwards (also on
   exceptions).  Everything lands on
   stderr or in files: stdout stays byte-identical whatever is on. *)
let with_obs ~tool ~cmd o f =
  Option.iter Qdp_par.set_jobs o.jobs;
  Option.iter Qdp_dist.set_workers o.workers;
  Option.iter
    (fun t ->
      Qdp_network.Runtime.set_deadline t;
      Qdp_dist.set_shard_timeout t)
    o.timeout;
  Option.iter Qdp_dist.set_chaos o.chaos;
  if o.metrics <> None || o.trace <> None then Qdp_obs.set_enabled true;
  if o.profile then Qdp_obs.Prof.set_enabled true;
  (match o.progress with
  | Some interval ->
      Qdp_obs.Progress.configure ~interval_s:interval
        ~format:
          (if o.progress_json then Qdp_obs.Progress.Json
           else Qdp_obs.Progress.Human)
        ();
      Qdp_obs.Progress.set_enabled true
  | None -> ());
  (* A dump failure (bad path, full disk) should not mask a completed
     run with a [Finally_raised] backtrace. *)
  let dump what f file =
    try f file
    with Sys_error msg -> Printf.eprintf "%s: cannot write %s: %s\n" tool what msg
  in
  let finish () =
    Option.iter
      (dump "metrics" @@ fun file ->
       Qdp_obs.Metrics.write_json file (Qdp_obs.Metrics.snapshot ()))
      o.metrics;
    Option.iter
      (fun file ->
        dump "trace" Qdp_obs.Trace.write_jsonl file;
        Option.iter prerr_endline (Qdp_obs.Trace.drop_note ()))
      o.trace;
    if o.profile then Format.eprintf "%a@?" Qdp_obs.Prof.report ()
  in
  Fun.protect ~finally:finish (fun () -> Qdp_obs.section cmd f)
