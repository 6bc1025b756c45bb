(* e2e — the end-to-end benchmark with per-layer attribution.

     e2e.exe --workload W --seed S --seconds N --trace 0|1
     e2e.exe --all [--seed S] [--seconds N] [--trace 0|1]
     e2e.exe --workload W --runs K [--seed S] [--seconds N]
     e2e.exe --selftest BENCHMARK.json

   One invocation runs one workload in this process (children: the
   tables binary, the serve daemon, sharding workers), prints every
   metric by name with its unit, checks the outputs, and ends with one
   JSON line {"correct", "attempted", "failed", "metrics"}.  Untraced
   (--trace 0) it reports the end-to-end metrics; traced (--trace 1)
   the per-layer ones.  It exits 1 when any check failed.  Run it from
   the repository root after building bin/ (see run.sh); README.md
   explains the workloads and the layer-to-end-to-end map. *)

open Qdp_core
module Json = Qdp_obs.Json
module Sweep = Qdp_faults.Sweep
module Client = Qdp_serve.Client
module Eval = Qdp_serve.Eval
module Load = Qdp_serve.Load
module Request = Qdp_serve.Request

let () = Protocols.init ()
let now = Proc.now

(* --- workload shapes --- *)

let workloads = [ "tables"; "xval"; "fault_sweep"; "serve_cold"; "serve_hot" ]
let tables_exe = "_build/default/bin/tables.exe"
let qdp_exe = "_build/default/bin/qdp.exe"
let reference_file = "tables_output.txt"
let out_dir = ".e2e"

(* Set-ups per run; setup_s is their median. *)
let setup_reps = 5

(* Units of a batch workload per timed phase, at least. *)
let min_units = 3
let xval_trials = 250
let sweep_trials = 20
let sweep_points = 6
let sweep_workers = 2
let sessions = 2

(* serve_cold: one request in [fault_every] is faulted (Drop 0.1, 5
   trials); every [check_every]-th reply is re-evaluated in-process. *)
let fault_every = 8
let check_every = 16

(* --- metric names --- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("p50_ms", "ms");
    ("tail_ms", "ms");
    ("throughput_rps", "1/s");
    ("peak_rss_mb", "MB");
  ]

let network_ids () =
  List.filter_map
    (fun e ->
      let i = Registry.info e in
      if i.Registry.info_network then Some i.Registry.info_id else None)
    (Registry.all ())

let counter_names =
  [
    "network.runs";
    "network.messages";
    "faults.points";
    "faults.injected";
    "dist.tasks";
    "dist.useful_frac";
    "dist.retries";
    "dist.fallbacks";
    "serve.cache_hit_frac";
    "serve.server_share";
    "obs.overhead_frac";
    "fingerprint.hit_frac";
  ]

let per_layer_names () =
  Probes.names
  @ List.map (fun id -> "core.xval_s." ^ id) (network_ids ())
  @ counter_names

let layer_unit name =
  let ends s = String.ends_with ~suffix:s name in
  if String.starts_with ~prefix:"core.xval_s." name then "s"
  else if ends "_ms" then "ms"
  else if ends "_us" then "us"
  else if ends "_frac" || ends "_share" then "ratio"
  else if ends "words_per_exec" then "words"
  else "count"

(* --- the run --- *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  tally : Stats.tally;
}

(* Files a run leaves behind (socket, traces, metrics), per workload
   and seed. *)
let path ctx what = Printf.sprintf "%s/%s-%d.%s" out_dir ctx.workload ctx.seed what

(* Run [setup] [setup_reps] times: setup_s is the median duration,
   and every result is returned. *)
let repeated_setup setup =
  let runs =
    List.init setup_reps (fun _ ->
        let t0 = now () in
        let v = setup () in
        (now () -. t0, v))
  in
  (Stats.median (Array.of_list (List.map fst runs)), List.map snd runs)

(* Run [unit_] back to back: [min] times, then while one more unit
   (at the median duration so far) is expected to end within
   [seconds].  Returns the per-unit durations and the phase's wall. *)
let run_units ?(min = min_units) ~seconds unit_ =
  let t_start = now () in
  let durs = ref [] in
  let more () =
    let n = List.length !durs in
    n < min
    || now () -. t_start +. Stats.median (Array.of_list !durs) <= seconds
  in
  while more () do
    let t0 = now () in
    unit_ ();
    durs := (now () -. t0) :: !durs
  done;
  (Array.of_list (List.rev !durs), now () -. t_start)

let latency_metrics ~setup_s ~samples ~wall ~peak_kb =
  let s = Stats.summarize samples in
  Printf.printf "info tail_ms is %s of %d samples\n" s.Stats.tail_label s.Stats.n;
  [
    ("setup_s", setup_s);
    ("p50_ms", s.Stats.p50 *. 1e3);
    ("tail_ms", s.Stats.tail *. 1e3);
    ("throughput_rps", float_of_int s.Stats.n /. wall);
    ("peak_rss_mb", peak_kb /. 1024.);
  ]

(* --- counters: a Qdp_obs metrics snapshot, in process or from a
   child's --metrics file --- *)

type counters = (string * Json.t) list

let counters_of_json s : counters =
  match Json.member "metrics" (Json.parse s) with
  | Some ms ->
      List.filter_map
        (fun m ->
          match Json.member "name" m with
          | Some (Json.String n) -> Some (n, m)
          | _ -> None)
        (Json.to_list ms)
  | None -> []

let in_process_counters () =
  counters_of_json (Qdp_obs.Metrics.to_json (Qdp_obs.Metrics.snapshot ()))

let file_counters file =
  match Proc.read_file file with Some s -> counters_of_json s | None -> []

let field cs name key =
  match Option.bind (List.assoc_opt name cs) (Json.member key) with
  | Some (Json.Num v) -> v
  | _ -> 0.

let counter cs name = field cs name "value"

let hist_mean cs name =
  let n = field cs name "count" in
  if n > 0. then field cs name "sum" /. n else 0.

let ratio a b = if b > 0. then a /. b else 0.

let counter_metrics cs ~overhead ~server_share =
  let tasks = counter cs "dist.tasks" in
  let hits = counter cs "fingerprint.cache.hits" in
  [
    ("network.runs", counter cs "runtime.runs");
    ("network.messages", counter cs "runtime.messages");
    ("faults.points", counter cs "faults.points");
    ("faults.injected", counter cs "faults.injected");
    ("dist.tasks", tasks);
    (* no task dispatched means none was wasted *)
    ("dist.useful_frac", if tasks > 0. then counter cs "dist.results" /. tasks else 1.);
    ("dist.retries", counter cs "dist.retries");
    ("dist.fallbacks", counter cs "dist.fallbacks");
    ( "serve.cache_hit_frac",
      ratio (counter cs "serve.cache.hits") (counter cs "serve.requests") );
    ("serve.server_share", server_share);
    ("obs.overhead_frac", overhead);
    ("fingerprint.hit_frac", ratio hits (hits +. counter cs "fingerprint.cache.misses"));
  ]

(* --- xval: the registry-wide differential harness --- *)

(* One pass: every network-capable entry cross-validated at [trials]
   on its demo instances at the default spec (what `qdp xval` checks),
   with the Monte-Carlo stream drawn from [seed].  Fixed instances
   keep the work per pass the same for every seed.  Returns the digest
   of every check line, the number of disagreements and the per-entry
   seconds. *)
let xval_pass ?(only = fun _ -> true) ~seed ~trials () =
  let spec = Registry.default_spec in
  let st = Random.State.make [| seed; 7 |] in
  let buf = Buffer.create 4096 in
  let disagreements = ref 0 in
  let times =
    List.filter_map
      (fun e ->
        let id = (Registry.info e).Registry.info_id in
        if not (only id) then None
        else begin
          let t0 = now () in
          let res =
            Spans.with_span ("core.xval." ^ id) (fun () ->
                Registry.cross_validate_demo ~trials ~st spec e)
          in
          let dt = now () -. t0 in
          match res with
          | None -> None
          | Some results ->
              List.iter
                (fun (label, cs) ->
                  List.iter
                    (fun (c : Dqma.check) ->
                      if not c.Dqma.agree then incr disagreements;
                      Buffer.add_string buf
                        (Printf.sprintf "%s %s %s %.17g %.17g %d %.17g %b\n" id label
                           c.Dqma.check_strategy c.Dqma.analytic c.Dqma.sampled
                           c.Dqma.trials c.Dqma.tolerance c.Dqma.agree))
                    cs)
                results;
              Some (id, dt)
        end)
      (Registry.all ())
  in
  (Digest.to_hex (Digest.string (Buffer.contents buf)), !disagreements, times)

(* The per-entry xval seconds every traced run reports: the workload's
   own spans for xval, one pass at the same shape (this) for the
   others. *)
let xval_probe ctx =
  ignore (Proc.pin ~workers:0);
  let _, _, times = xval_pass ~seed:ctx.seed ~trials:xval_trials () in
  times

let xval_entry_metrics times =
  List.map
    (fun id ->
      let ts = List.filter_map (fun (i, t) -> if i = id then Some t else None) times in
      ("core.xval_s." ^ id, Stats.median (Array.of_list ts)))
    (network_ids ())

(* --- batch workloads: tables, xval, fault_sweep --- *)

type batch = {
  setup : unit -> unit;
  work : traced:bool -> unit;  (** one unit of work, outputs checked *)
  peak_kb : unit -> int;
  traced_counters : unit -> counters;  (** of the last traced unit *)
  entry_times : unit -> (string * float) list;  (** xval spans, if any *)
}

(* Traced: half the time untraced, half traced, so the overhead of
   the program's own observability is measured in the same run. *)
let run_batch ctx b =
  let setup_s, _ = repeated_setup b.setup in
  if not ctx.traced then begin
    let durs, wall = run_units ~seconds:ctx.seconds (fun () -> b.work ~traced:false) in
    Printf.printf "info units_s %s\n"
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") durs)));
    latency_metrics ~setup_s ~samples:durs ~wall ~peak_kb:(float_of_int (b.peak_kb ()))
  end
  else begin
    let half = ctx.seconds /. 2. in
    let plain, _ = run_units ~min:2 ~seconds:half (fun () -> b.work ~traced:false) in
    Spans.start ();
    let traced, _ = run_units ~min:2 ~seconds:half (fun () -> b.work ~traced:true) in
    let overhead = (Stats.median traced /. Stats.median plain) -. 1. in
    let cs = b.traced_counters () in
    let times = match b.entry_times () with [] -> xval_probe ctx | times -> times in
    counter_metrics cs ~overhead ~server_share:0. @ xval_entry_metrics times
  end

(* Qdp_obs on for exactly one traced unit, counters reset before it,
   so after a traced phase the in-process counters are its last
   unit's. *)
let observed ~traced f =
  if not traced then f ()
  else begin
    Qdp_obs.Metrics.reset ();
    Qdp_obs.Trace.clear ();
    Qdp_obs.with_enabled true f
  end

(* [check d] holds iff [d] equals the first digest [check] saw, which
   it prints: every unit of a run must reproduce the first. *)
let same_digest () =
  let first = ref None in
  fun d ->
    if !first = None then begin
      first := Some d;
      Printf.printf "info digest %s\n" d
    end;
    !first = Some d

let self_peak_kb () = Option.value ~default:0 (Proc.peak_rss_kb "self")

let tables ctx =
  let reference =
    match Proc.read_file reference_file with
    | Some s -> s
    | None -> failwith ("cannot read " ^ reference_file)
  in
  let pinned = [ "--jobs"; "1"; "--workers"; "0" ] in
  let peak = ref 0 in
  let metrics_file = path ctx "metrics.json" in
  run_batch ctx
    {
      setup =
        (fun () ->
          (* the first table alone: the binary runs and its output is
             the head of the reference transcript *)
          let ok, out, _ = Proc.capture tables_exe ("t1" :: pinned) in
          Stats.record ctx.tally
            (ok && out <> "" && String.starts_with ~prefix:out reference));
      work =
        (fun ~traced ->
          let obs =
            if traced then [ "--metrics"; metrics_file; "--trace"; path ctx "trace.jsonl" ]
            else []
          in
          let ok, out, kb =
            Spans.with_span "tables.child" (fun () ->
                Proc.capture tables_exe (("all" :: pinned) @ obs))
          in
          peak := max !peak kb;
          Stats.record ctx.tally (ok && String.equal out reference));
      peak_kb = (fun () -> !peak);
      traced_counters = (fun () -> file_counters metrics_file);
      entry_times = (fun () -> []);
    }

let xval ctx =
  print_endline (Proc.pin ~workers:0);
  let check = same_digest () in
  let times = ref [] in
  run_batch ctx
    {
      setup =
        (fun () ->
          let _, bad, _ = xval_pass ~seed:ctx.seed ~trials:5 () in
          Stats.record ctx.tally (bad = 0));
      work =
        (fun ~traced ->
          let d, bad, ts =
            observed ~traced (fun () ->
                Spans.with_span "xval.pass" (fun () ->
                    xval_pass ~seed:ctx.seed ~trials:xval_trials ()))
          in
          if traced then times := ts @ !times;
          Stats.record ctx.tally (bad = 0 && check d));
      peak_kb = self_peak_kb;
      traced_counters = in_process_counters;
      entry_times = (fun () -> !times);
    }

(* The sweep's randomness derives from [seed]; its instances are the
   default spec's, as for xval. *)
let sweep_config ~seed ~trials ~points =
  {
    (Sweep.default ~seed) with
    Sweep.trials;
    grid = Sweep.default_grid ~points ();
    spec = Registry.default_spec;
  }

let fault_sweep ctx =
  print_endline (Proc.pin ~workers:sweep_workers);
  let cfg = sweep_config ~seed:ctx.seed ~trials:sweep_trials ~points:sweep_points in
  let check = same_digest () in
  run_batch ctx
    {
      setup =
        (fun () ->
          (* a small sweep over every protocol: builds each fault suite
             and forks the workers once *)
          ignore (Sweep.run (sweep_config ~seed:ctx.seed ~trials:2 ~points:2)));
      work =
        (fun ~traced ->
          let r =
            observed ~traced (fun () -> Spans.with_span "faults.sweep" (fun () -> Sweep.run cfg))
          in
          let d = Digest.to_hex (Digest.string (Sweep.to_json r)) in
          Stats.record ctx.tally (Sweep.violations r = 0 && check d));
      peak_kb = self_peak_kb;
      traced_counters = in_process_counters;
      entry_times = (fun () -> []);
    }

(* --- serve workloads: a daemon child driven closed-loop --- *)

type daemon = { pid : int; socket : string; metrics : string option }

(* Daemons not yet stopped.  However this process ends (a failed
   check, an exception, SIGTERM/SIGINT) they are drained and reaped;
   forked sharding workers share the list but never act on it. *)
let live = ref []

let () =
  let owner = Unix.getpid () in
  at_exit (fun () ->
      if Unix.getpid () = owner then List.iter (fun pid -> ignore (Proc.terminate pid)) !live);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ]

let daemon_flags =
  [
    ("--jobs", "1");
    ("--workers", "0");
    ("--model", "off");
    ("--cache", string_of_int Qdp_serve.Server.default_config.cache_capacity);
    ("--queue-limit", string_of_int Qdp_serve.Server.default_config.queue_limit);
  ]

let spawned = ref 0

(* Start `qdp serve` on a socket of its own and wait until the socket
   accepts a session. *)
let spawn ctx ~traced =
  incr spawned;
  let socket = path ctx (Printf.sprintf "%d.sock" !spawned) in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let metrics = if traced then Some (path ctx "metrics.json") else None in
  let obs =
    match metrics with
    | Some m -> [ "--metrics"; m; "--trace"; path ctx "trace.jsonl" ]
    | None -> []
  in
  let args =
    ("serve" :: "--socket" :: socket :: List.concat_map (fun (f, v) -> [ f; v ]) daemon_flags)
    @ obs
  in
  let null = Proc.devnull () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process_env qdp_exe
          (Array.of_list (qdp_exe :: args))
          (Proc.child_env ()) null null null)
  in
  let give_up = now () +. 10. in
  let rec ready () =
    match Client.connect socket with
    | c -> Client.close c
    | exception Unix.Unix_error _ ->
        if now () > give_up then begin
          ignore (Proc.terminate pid);
          failwith "serve daemon did not come up"
        end;
        Unix.sleepf 0.001;
        ready ()
  in
  live := pid :: !live;
  ready ();
  Proc.check_child_flags pid daemon_flags;
  { pid; socket; metrics }

let stop d =
  live := List.filter (( <> ) d.pid) !live;
  ignore (Proc.terminate d.pid)

(* [sessions] sessions, each sending its next request the moment the
   previous reply arrives, for [seconds].  [next ()] is the next
   (correlation id, payload); [on_event id event] sees every reply. *)
let closed_loop ~socket ~seconds ~next ~on_event =
  let clients = Array.init sessions (fun _ -> Client.connect socket) in
  Fun.protect ~finally:(fun () -> Array.iter Client.close clients) @@ fun () ->
  let inflight = Array.make sessions None in
  let lat = Stats.samples () in
  let send i =
    let id, payload = next () in
    inflight.(i) <- Some (id, now ());
    Client.send clients.(i) ~id payload
  in
  let t0 = now () in
  let deadline = t0 +. seconds and hard_stop = t0 +. seconds +. 30. in
  Array.iteri (fun i _ -> send i) clients;
  let last = ref t0 in
  while Array.exists Option.is_some inflight && now () < hard_stop do
    let busy =
      List.filter_map
        (fun i -> Option.map (fun _ -> Client.fd clients.(i)) inflight.(i))
        (List.init sessions Fun.id)
    in
    match Unix.select busy [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        Array.iteri
          (fun i c ->
            match inflight.(i) with
            | Some (id, t_send) when List.memq (Client.fd c) readable ->
                let ev = Client.next_event c in
                let t = now () in
                inflight.(i) <- None;
                last := t;
                Stats.push lat (t -. t_send);
                Spans.add "serve.request" ~start:t_send ~dur:(t -. t_send);
                on_event id ev;
                if t < deadline && ev <> `Eof then send i
            | _ -> ())
          clients
  done;
  Array.iter (Option.iter (fun (id, _) -> on_event id `Eof)) inflight;
  (Stats.contents lat, !last -. t0)

(* A reply to the request [id] is a success; anything else counts as a
   failed request. *)
let reply_of ctx id = function
  | `Reply (rid, response) when rid = id ->
      Stats.record ctx.tally true;
      Some response
  | `Reply _ | `Reject _ | `Eof ->
      Stats.record ctx.tally false;
      None

(* Send every request of [mix] over one session, one at a time: the
   set-up step of both serve workloads. *)
let send_all ctx d mix =
  let c = Client.connect d.socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.iteri
        (fun i r -> ignore (reply_of ctx i (Client.rpc c ~id:i (Request.to_json r))))
        mix)

(* The timed phase runs on the last set-up's daemon.  Traced: half the
   time on it, half on one more daemon started with --metrics/--trace. *)
let run_serve ctx ~setup ~next ~on_event ~finish =
  let setup_s, daemons = repeated_setup (fun () -> setup ~traced:false) in
  let d = List.hd (List.rev daemons) in
  List.iter (fun d' -> if d' != d then stop d') daemons;
  let phase d seconds =
    let samples, wall = closed_loop ~socket:d.socket ~seconds ~next ~on_event in
    let peak_kb = Option.value ~default:0 (Proc.peak_rss_kb (string_of_int d.pid)) in
    stop d;
    (samples, wall, float_of_int peak_kb)
  in
  if not ctx.traced then begin
    let samples, wall, peak_kb = phase d ctx.seconds in
    finish ();
    latency_metrics ~setup_s ~samples ~wall ~peak_kb
  end
  else begin
    let half = ctx.seconds /. 2. in
    let plain, plain_wall, _ = phase d half in
    let dt = setup ~traced:true in
    Spans.start ();
    let traced, traced_wall, _ = phase dt half in
    finish ();
    let rate samples wall = float_of_int (Array.length samples) /. wall in
    let overhead = (rate plain plain_wall /. rate traced traced_wall) -. 1. in
    let cs = file_counters (Option.get dt.metrics) in
    let client_mean =
      Array.fold_left ( +. ) 0. traced /. float_of_int (Array.length traced)
    in
    let server_share = hist_mean cs "serve.request.seconds" /. client_mean in
    counter_metrics cs ~overhead ~server_share @ xval_entry_metrics (xval_probe ctx)
  end

(* Request [k >= 0] of serve_cold: spec seed [base + k], distinct per
   request, so the daemon's verdict cache never hits. *)
let cold_request ~base =
  let ids = Array.of_list (Registry.ids ()) in
  let faulty =
    Array.of_list
      (List.filter_map
         (fun e ->
           let i = Registry.info e in
           if i.Registry.info_fault_tolerant then Some i.Registry.info_id else None)
         (Registry.all ()))
  in
  fun k ->
    let spec = { Registry.default_spec with seed = base + k } in
    if k mod fault_every = fault_every - 1 then
      Request.make ~spec
        ~fault:{ Request.f_kind = "drop"; f_strength = 0.1; f_turn = None; f_trials = 5 }
        faulty.(k / fault_every mod Array.length faulty)
    else Request.make ~spec ids.(k mod Array.length ids)

let serve_cold ctx =
  print_endline (Proc.pin ~workers:0);
  let base = ((ctx.seed land 0xffff) + 1) * 1_000_000 in
  let request = cold_request ~base in
  let k = ref 0 in
  let sampled = ref [] in
  run_serve ctx
    ~setup:(fun ~traced ->
      let d = spawn ctx ~traced in
      (* warm every protocol once, on the load mix's default seed,
         which the timed keys never use *)
      send_all ctx d (Load.mix ());
      d)
    ~next:(fun () ->
      let id = !k in
      incr k;
      (id, Request.to_json (request id)))
    ~on_event:(fun id ev ->
      match reply_of ctx id ev with
      | Some response when id mod check_every = 0 ->
          sampled := (id, response) :: !sampled
      | _ -> ())
    ~finish:(fun () ->
      (* outside the timed window: the daemon's bytes must equal an
         in-process evaluation of the same request *)
      List.iter
        (fun (id, response) ->
          Stats.record ctx.tally (Eval.run (request id) = Ok response))
        !sampled)

let serve_hot ctx =
  print_endline (Proc.pin ~workers:0);
  (* The mix at its default seed, so the set-up's cache fill costs the
     same for every seed; the seed picks the order the sessions cycle
     through the keys. *)
  let mix = Load.mix () in
  let order = Array.of_list mix in
  let n = Array.length order in
  let st = Random.State.make [| ctx.seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let payloads = Array.map Request.to_json order and keys = Array.map Request.key order in
  let seen = Hashtbl.create n in
  let k = ref 0 in
  run_serve ctx
    ~setup:(fun ~traced ->
      let d = spawn ctx ~traced in
      (* fill the verdict cache with every key of the mix *)
      send_all ctx d mix;
      d)
    ~next:(fun () ->
      let id = !k in
      incr k;
      (id, payloads.(id mod n)))
    ~on_event:(fun id ev ->
      match reply_of ctx id ev with
      | Some response -> (
          let key = keys.(id mod n) in
          match Hashtbl.find_opt seen key with
          | Some r when r <> response -> Stats.record ctx.tally false
          | Some _ -> ()
          | None -> Hashtbl.replace seen key response)
      | None -> ())
    ~finish:(fun () ->
      let pairs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) seen [] in
      let direct = Load.direct_digest () in
      Printf.printf "info digest %s\n" direct;
      Stats.record ctx.tally
        (Hashtbl.length seen = n && Load.digest pairs = direct))

(* --- output --- *)

let emit ctx metrics =
  let expected =
    if ctx.traced then per_layer_names () else List.map fst end_to_end
  in
  let names = List.map fst metrics in
  if List.sort compare names <> List.sort compare expected then begin
    prerr_endline "e2e: emitted metric names differ from the declared set";
    exit 3
  end;
  let unit_of name =
    if ctx.traced then layer_unit name else List.assoc name end_to_end
  in
  List.iter
    (fun (name, v) -> Printf.printf "%s %s %s\n" name (Json.float v) (unit_of name))
    metrics;
  let correct = ctx.tally.Stats.failed = 0 && ctx.tally.Stats.attempted > 0 in
  Printf.printf "failed_frac %s (%d of %d)\n"
    (Json.float (Stats.failed_frac ctx.tally))
    ctx.tally.Stats.failed ctx.tally.Stats.attempted;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    correct ctx.tally.Stats.attempted ctx.tally.Stats.failed
    (String.concat ","
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Json.str name)
              (Json.float v) (Json.str (unit_of name)))
          metrics));
  correct

let run_workload ~workload ~seed ~seconds ~traced =
  List.iter
    (fun f ->
      if not (Sys.file_exists f) then begin
        Printf.eprintf "e2e: %s not found; run from the repository root after building\n" f;
        exit 2
      end)
    [ tables_exe; qdp_exe; reference_file ];
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  print_endline (Proc.host_line ());
  let ctx = { workload; seed; seconds; traced; tally = Stats.tally () } in
  let metrics =
    match workload with
    | "tables" -> tables ctx
    | "xval" -> xval ctx
    | "fault_sweep" -> fault_sweep ctx
    | "serve_cold" -> serve_cold ctx
    | "serve_hot" -> serve_hot ctx
    | w ->
        Printf.eprintf "e2e: unknown workload %s (expected %s)\n" w
          (String.concat ", " workloads);
        exit 2
  in
  let metrics =
    if not traced then metrics
    else begin
      Spans.write_jsonl (path ctx "spans.jsonl");
      ignore (Proc.pin ~workers:0);
      metrics @ Probes.run ()
    end
  in
  if emit ctx metrics then 0 else 1

(* --- driving fresh processes: --all and --runs --- *)

let self_run ~workload ~seed ~seconds ~traced =
  Proc.capture ~keep_stderr:true Sys.executable_name
    [
      "--workload"; workload;
      "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds;
      "--trace"; (if traced then "1" else "0");
    ]

let last_line out =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
  | l :: _ -> l
  | [] -> ""

let run_all ~seed ~seconds ~traced =
  let ok =
    List.for_all Fun.id
      (List.map
         (fun workload ->
           let ok, out, _ = self_run ~workload ~seed ~seconds ~traced in
           List.iter
             (fun l -> if l <> "" then Printf.printf "%s %s\n" workload l)
             (String.split_on_char '\n' out);
           ok)
         workloads)
  in
  if ok then 0 else 1

(* K fresh processes on seeds S..S+K-1: median, quartiles and the
   quartile spread as a share of the median, per metric. *)
let run_many ~workload ~seed ~seconds ~traced ~runs =
  let results =
    List.init runs (fun i ->
        let ok, out, _ = self_run ~workload ~seed:(seed + i) ~seconds ~traced in
        match Json.member "metrics" (Json.parse (last_line out)) with
        | Some m -> (ok, m)
        | None | (exception Json.Parse_error _) -> (false, Json.Null))
  in
  let names =
    match results with
    | (_, Json.Obj kvs) :: _ -> List.map fst kvs
    | _ -> []
  in
  List.iter
    (fun name ->
      let values =
        Array.of_list
          (List.filter_map
             (fun (_, m) ->
               Option.bind (Json.member name m) (fun v ->
                   Option.bind (Json.member "value" v) Json.num_opt))
             results)
      in
      match Stats.quartiles values with
      | [ q1; q2; q3 ] ->
          Printf.printf "%s median=%s q1=%s q3=%s spread=%.4f n=%d\n" name
            (Json.float q2) (Json.float q1) (Json.float q3)
            (if q2 <> 0. then (q3 -. q1) /. Float.abs q2 else 0.)
            (Array.length values)
      | _ -> ())
    names;
  if List.for_all fst results then 0 else 1

(* --- selftest (a runtest rule): accounting, names, a smoke pass --- *)

let selftest benchmark_json =
  let check what ok =
    if not ok then begin
      Printf.eprintf "e2e selftest: %s\n" what;
      exit 1
    end
  in
  let range n = Array.init n (fun i -> float_of_int (i + 1)) in
  let s = Stats.summarize (range 100) in
  check "p50 of 1..100" (s.Stats.p50 = 50.);
  check "tail of 1..100 is p90" (s.Stats.tail_label = "p90" && s.Stats.tail = 90.);
  let s = Stats.summarize (range 1000) in
  check "tail of 1..1000 is p99" (s.Stats.tail_label = "p99" && s.Stats.tail = 990.);
  let s = Stats.summarize (range 999) in
  check "tail of 1..999 is p90" (s.Stats.tail_label = "p90");
  let s = Stats.summarize [| 3.; 1.; 2. |] in
  check "tail of 3 samples is the max" (s.Stats.tail_label = "max" && s.Stats.tail = 3.);
  check "quartiles match Python" (Stats.quartiles [| 4.; 1.; 3.; 2. |] = [ 1.25; 2.5; 3.75 ]);
  check "median of 5" (Stats.median [| 5.; 1.; 4.; 2.; 3. |] = 3.);
  let t = Stats.tally () in
  List.iter (Stats.record t) [ true; false; true; true ];
  check "failure accounting" (t.Stats.attempted = 4 && t.Stats.failed = 1);
  check "failed_frac" (Stats.failed_frac t = 0.25);
  let j =
    Json.parse (Option.get (Proc.read_file benchmark_json))
  in
  let entries key field =
    List.sort compare
      (List.filter_map
         (fun m ->
           match Option.bind (Json.member "name" m) Json.string_opt with
           | Some name -> Some (name, Option.bind (Json.member field m) Json.string_opt)
           | None -> None)
         (Json.to_list (Option.value ~default:Json.Null (Json.member key j))))
  in
  let declared units = List.sort compare (List.map (fun (n, u) -> (n, Some u)) units) in
  check "workloads match BENCHMARK.json"
    (List.map fst (entries "workloads" "why") = List.sort compare workloads);
  check "end_to_end names and units match BENCHMARK.json"
    (entries "end_to_end" "unit" = declared end_to_end);
  check "per_layer names and units match BENCHMARK.json"
    (entries "per_layer" "unit"
    = declared (List.map (fun n -> (n, layer_unit n)) (per_layer_names ())));
  ignore (Proc.pin ~workers:0);
  let pass () = xval_pass ~only:(String.equal "eq") ~seed:1 ~trials:5 () in
  let d1, bad, times = pass () in
  let d2, _, _ = pass () in
  check "xval smoke: no disagreement" (bad = 0 && List.length times = 1);
  check "xval smoke: digest stable" (d1 = d2);
  print_endline "e2e selftest: ok";
  0

(* --- command line --- *)

let () =
  let open Cmdliner in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"W"
           ~doc:("Workload to run: " ^ String.concat ", " workloads ^ "."))
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Input seed.") in
  let seconds =
    Arg.(value & opt float 15. & info [ "seconds" ] ~docv:"N"
           ~doc:"Length of the timed phase.")
  in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false & info [ "trace" ] ~docv:"0|1"
           ~doc:"1 = traced run reporting the per-layer metrics.")
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Run every workload, each in a fresh process.") in
  let runs =
    Arg.(value & opt (some int) None & info [ "runs" ] ~docv:"K"
           ~doc:"Run the workload K times on seeds S..S+K-1; report median and quartiles.")
  in
  let benchmark_json =
    Arg.(value & opt (some string) None & info [ "selftest" ] ~docv:"BENCHMARK_JSON"
           ~doc:"Check the statistics helpers, the metric names against $(docv), and a small xval pass.")
  in
  let main workload seed seconds traced all runs benchmark_json =
    match (benchmark_json, all, workload, runs) with
    | Some file, _, _, _ -> selftest file
    | None, true, _, _ -> run_all ~seed ~seconds ~traced
    | None, false, Some workload, Some runs -> run_many ~workload ~seed ~seconds ~traced ~runs
    | None, false, Some workload, None -> run_workload ~workload ~seed ~seconds ~traced
    | None, false, None, _ ->
        prerr_endline "e2e: give --workload W, --all or --selftest FILE";
        2
  in
  let term = Term.(const main $ workload $ seed $ seconds $ trace $ all $ runs $ benchmark_json) in
  exit (Cmd.eval' (Cmd.v (Cmd.info "e2e" ~doc:"End-to-end benchmark with per-layer attribution") term))
