(* Multi-process coordinator/worker sharding: see qdp_dist.mli.

   Forking strategy: workers are forked per region, *after* the shard
   closure exists, so children execute it straight from inherited
   (copy-on-write) memory and only marshalled results cross the pipe.
   Any worker that began computing a shard either returns its result
   or is killed — crash, hang and corruption detection all terminate
   the process — so no live worker ever holds a partially-consumed
   copy of a shard's RNG state, and every re-attempt starts from a
   fresh copy-on-write snapshot.  A shard whose closure raises is
   recomputed in the coordinator so the original exception surfaces
   with sequential semantics. *)

module Backoff = Backoff
module Frame = Frame
module Metrics = Qdp_obs.Metrics

(* -- configuration -------------------------------------------------- *)

(* 0 = unresolved; setters win over the environment, workers resolve
   the env lazily so the CLI can run before first use. *)

let env_int name ~default ~lo =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v >= lo -> v
      | Some _ | None -> default)
  | None -> default

let env_float name ~default =
  match Sys.getenv_opt name with
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some v when not (Float.is_nan v) -> v
      | Some _ | None -> default)
  | None -> default

let workers_cfg : int option ref = ref None

let workers () =
  match !workers_cfg with
  | Some w -> w
  | None ->
      let w = env_int "QDP_WORKERS" ~default:0 ~lo:0 in
      workers_cfg := Some w;
      w

let set_workers n =
  if n < 0 then invalid_arg "Qdp_dist.set_workers: need n >= 0";
  workers_cfg := Some n

let shard_timeout_cfg : float option ref = ref None

let shard_timeout () =
  match !shard_timeout_cfg with
  | Some t -> t
  | None ->
      let t = env_float "QDP_DIST_TIMEOUT" ~default:30.0 in
      shard_timeout_cfg := Some t;
      t

let set_shard_timeout t =
  if Float.is_nan t then invalid_arg "Qdp_dist.set_shard_timeout: NaN";
  shard_timeout_cfg := Some t

let max_attempts_cfg = ref 4
let max_attempts () = !max_attempts_cfg

let set_max_attempts n =
  if n < 1 then invalid_arg "Qdp_dist.set_max_attempts: need n >= 1";
  max_attempts_cfg := n

let respawn_cfg = ref (-1)
let respawn_budget () = !respawn_cfg
let set_respawn_budget n = respawn_cfg := max (-1) n

let chaos_cfg : float option ref = ref None

let chaos () =
  match !chaos_cfg with
  | Some p -> p
  | None ->
      let p = env_float "QDP_CHAOS" ~default:0.0 in
      let p = if p < 0.0 || p > 1.0 then 0.0 else p in
      chaos_cfg := Some p;
      p

let set_chaos p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Qdp_dist.set_chaos: need 0 <= p <= 1";
  chaos_cfg := Some p

let chaos_seed_cfg = ref 42
let chaos_seed () = !chaos_seed_cfg
let set_chaos_seed s = chaos_seed_cfg := s

(* -- observability -------------------------------------------------- *)

let c_tasks = Metrics.counter "dist.tasks"
let c_results = Metrics.counter "dist.results"
let c_retries = Metrics.counter "dist.retries"
let c_crashes = Metrics.counter "dist.crashes"
let c_hangs = Metrics.counter "dist.hangs"
let c_corrupt = Metrics.counter "dist.corrupt"
let c_duplicates = Metrics.counter "dist.duplicates"
let c_respawns = Metrics.counter "dist.respawns"
let c_degraded = Metrics.counter "dist.degraded"
let c_fallbacks = Metrics.counter "dist.fallbacks"

type report = {
  rp_label : string;
  rp_workers : int;
  rp_shards : int;
  rp_from_workers : int;
  rp_in_process : int;
  rp_retries : int;
  rp_crashes : int;
  rp_hangs : int;
  rp_corrupt : int;
  rp_duplicates : int;
  rp_respawns : int;
  rp_degraded : int;
  rp_fallback : bool;
}

let last_report_ref : report option ref = ref None
let last_report () = !last_report_ref

(* -- chaos schedule ------------------------------------------------- *)

(* Keyed on (seed, shard, attempt) — never on worker identity or wall
   time — so the set of injected events, and with it every retry and
   degradation count, is a pure function of the configuration. *)
type chaos_event = Crash | Hang | Corrupt_frame | Corrupt_payload

let chaos_event ~seed ~shard ~attempt ~p =
  if p <= 0.0 then None
  else begin
    let st = Random.State.make [| seed; shard; attempt; 0x6368616f |] in
    if Random.State.float st 1.0 >= p then None
    else
      match Random.State.int st 4 with
      | 0 -> Some Crash
      | 1 -> Some Hang
      | 2 -> Some Corrupt_frame
      | _ -> Some Corrupt_payload
  end

(* -- worker (child) side -------------------------------------------- *)

let write_raw fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write fd b !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let counter_deltas before after =
  let value snap name =
    match Metrics.find snap name with
    | Some (Metrics.Counter_v v) -> Some v
    | _ -> None
  in
  List.filter_map
    (fun (name, view) ->
      match view with
      | Metrics.Counter_v v ->
          let b = Option.value ~default:0 (value before name) in
          if v <> b then Some (name, v - b) else None
      | _ -> None)
    after

(* Runs the shard, shipping [Qdp_obs] counter increments alongside the
   result so the coordinator's metrics see the work done in children. *)
let shard_payload f shard =
  if Qdp_obs.enabled () then begin
    let before = Metrics.snapshot () in
    let r = f shard in
    let after = Metrics.snapshot () in
    Marshal.to_string (r, counter_deltas before after) []
  end
  else Marshal.to_string (f shard, ([] : (string * int) list)) []

(* Never returns.  Exit discipline: always [Unix._exit] — a normal
   exit would run the parent's [at_exit] hooks (domain joins, buffer
   flushes) against state the child does not own. *)
let worker_main ~f ~task_r ~res_w =
  (try
     (* The pool must never start in a child, nested regions must not
        fork, and only the coordinator heartbeats. *)
     Qdp_par.set_jobs 1;
     workers_cfg := Some 0;
     Qdp_obs.Progress.set_enabled false;
     Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
     let p = chaos () and seed = chaos_seed () in
     let reader = Frame.reader () in
     let buf = Bytes.create 65536 in
     let rec read_msg () =
       match Frame.next reader with
       | `Msg m -> Some m
       | `Corrupt -> None
       | `More -> (
           match Unix.read task_r buf 0 (Bytes.length buf) with
           | 0 -> None
           | n ->
               Frame.feed reader buf n;
               read_msg ()
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_msg ())
     in
     let rec loop () =
       match read_msg () with
       | None | Some Frame.Stop -> ()
       | Some
           (Frame.Ack _ | Frame.Result _ | Frame.Failed _ | Frame.Request _
           | Frame.Reply _ | Frame.Reject _) ->
           loop ()
       | Some (Frame.Task { shard; attempt }) -> (
           match chaos_event ~seed ~shard ~attempt ~p with
           | Some Crash ->
               (* die before acknowledging: pure crash *)
               Unix._exit 3
           | ev -> (
               Frame.write res_w (Frame.Ack { shard; attempt });
               match ev with
               | Some Crash -> assert false
               | Some Hang ->
                   (* miss the shard deadline; the coordinator kills
                      us.  The cap only bounds a run with detection
                      disabled. *)
                   Unix.sleepf 120.0;
                   Unix._exit 4
               | Some Corrupt_frame ->
                   (* a frame whose CRC no longer matches its bytes:
                      exercises the checksum detector.  The stream is
                      broken after this, so wait for the kill. *)
                   let raw =
                     Bytes.of_string
                       (Frame.encode
                          (Frame.Result { shard; attempt; payload = "XX" }))
                   in
                   Bytes.set raw 17
                     (Char.chr (Char.code (Bytes.get raw 17) lxor 0xFF));
                   write_raw res_w (Bytes.to_string raw);
                   Unix.sleepf 120.0;
                   Unix._exit 4
               | Some Corrupt_payload ->
                   (* CRC-valid frame, garbage inside: exercises the
                      unmarshal detector.  Never flip bytes of a real
                      marshalled value — that could decode to a wrong
                      but well-formed result. *)
                   Frame.write res_w
                     (Frame.Result { shard; attempt; payload = "CHAOSJUNK" });
                   loop ()
               | None ->
                   (match shard_payload f shard with
                   | payload ->
                       Frame.write res_w (Frame.Result { shard; attempt; payload })
                   | exception e ->
                       Frame.write res_w
                         (Frame.Failed
                            { shard; attempt; reason = Printexc.to_string e }));
                   loop ()))
     in
     loop ()
   with _ -> ());
  Unix._exit 0

(* -- coordinator (parent) side -------------------------------------- *)

type worker = {
  w_pid : int;
  w_to : Unix.file_descr;
  w_from : Unix.file_descr;
  w_reader : Frame.reader;
  mutable w_busy : (int * int * float) option;  (* shard, attempt, sent *)
  mutable w_alive : bool;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec waitpid_retry flags pid =
  match Unix.waitpid flags pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> (pid, Unix.WEXITED 0)

(* Forks one worker.  [close_in_child] lists the coordinator-side fds
   of every other live worker: a child inheriting them would keep a
   sibling's pipe open past that sibling's death and defeat EOF
   detection. *)
let fork_worker ~f ~close_in_child =
  let task_r, task_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      List.iter close_quiet close_in_child;
      close_quiet task_w;
      close_quiet res_r;
      worker_main ~f ~task_r ~res_w
  | pid ->
      close_quiet task_r;
      close_quiet res_w;
      {
        w_pid = pid;
        w_to = task_w;
        w_from = res_r;
        w_reader = Frame.reader ();
        w_busy = None;
        w_alive = true;
      }
  | exception e ->
      close_quiet task_r;
      close_quiet task_w;
      close_quiet res_r;
      close_quiet res_w;
      raise e

(* Mutable per-region bookkeeping; folded into a {!report} at exit. *)
type region_stats = {
  mutable s_from_workers : int;
  mutable s_in_process : int;
  mutable s_retries : int;
  mutable s_crashes : int;
  mutable s_hangs : int;
  mutable s_corrupt : int;
  mutable s_duplicates : int;
  mutable s_respawns : int;
  mutable s_degraded : int;
}

let coordinator ~label ~n ~(f : int -> 'r) nworkers : 'r array =
  let timeout = shard_timeout () in
  let maxatt = max_attempts () in
  let budget = respawn_budget () in
  let policy = { Backoff.default with max_attempts = maxatt } in
  (* Jitter RNG local to the coordinator: retry timing must never
     consume experiment randomness. *)
  let brng = Random.State.make [| 0x716470; chaos_seed () |] in
  let results : 'r option array = Array.make n None in
  let attempts = Array.make n 0 in
  let ready : int Queue.t = Queue.create () in
  for i = 0 to n - 1 do
    Queue.push i ready
  done;
  let delayed : (float * int) list ref = ref [] in
  let degraded : int list ref = ref [] in
  let outstanding = ref n in
  let stats =
    {
      s_from_workers = 0;
      s_in_process = 0;
      s_retries = 0;
      s_crashes = 0;
      s_hangs = 0;
      s_corrupt = 0;
      s_duplicates = 0;
      s_respawns = 0;
      s_degraded = 0;
    }
  in
  let prog = Qdp_obs.Progress.start ~total:n ("dist/" ^ label) in
  let pool : worker list ref = ref [] in
  let alive () = List.filter (fun w -> w.w_alive) !pool in
  let coordinator_fds () =
    List.concat_map (fun w -> [ w.w_to; w.w_from ]) (alive ())
  in
  let spawn () =
    match fork_worker ~f ~close_in_child:(coordinator_fds ()) with
    | w ->
        pool := w :: !pool;
        true
    | exception _ -> false
  in
  let degrade shard =
    degraded := shard :: !degraded;
    stats.s_degraded <- stats.s_degraded + 1;
    Metrics.incr c_degraded;
    decr outstanding
  in
  let fail_shard shard =
    if attempts.(shard) >= maxatt then degrade shard
    else begin
      stats.s_retries <- stats.s_retries + 1;
      Metrics.incr c_retries;
      let d = Backoff.delay policy ~st:brng ~attempt:attempts.(shard) in
      delayed := (Qdp_obs.Clock.now () +. d, shard) :: !delayed
    end
  in
  (* Kills a worker, failing its in-flight shard.  All three failure
     detectors funnel here, which is what keeps the RNG-state
     invariant: a worker that may have touched a shard never survives
     to receive that shard again. *)
  let kill_worker w =
    if w.w_alive then begin
      w.w_alive <- false;
      close_quiet w.w_to;
      close_quiet w.w_from;
      (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_retry [] w.w_pid);
      match w.w_busy with
      | Some (shard, _, _) ->
          w.w_busy <- None;
          fail_shard shard
      | None -> ()
    end
  in
  let maybe_respawn () =
    if
      !outstanding > 0
      && List.length (alive ()) < nworkers
      && (budget < 0 || stats.s_respawns < budget)
    then
      if spawn () then begin
        stats.s_respawns <- stats.s_respawns + 1;
        Metrics.incr c_respawns
      end
  in
  let complete w shard r deltas =
    match results.(shard) with
    | Some _ ->
        stats.s_duplicates <- stats.s_duplicates + 1;
        Metrics.incr c_duplicates;
        (match w.w_busy with
        | Some (s, _, _) when s = shard -> w.w_busy <- None
        | _ -> ())
    | None ->
        results.(shard) <- Some r;
        List.iter
          (fun (name, by) -> Metrics.incr ~by (Metrics.counter name))
          deltas;
        stats.s_from_workers <- stats.s_from_workers + 1;
        Metrics.incr c_results;
        decr outstanding;
        Qdp_obs.Progress.step prog;
        (match w.w_busy with
        | Some (s, _, _) when s = shard -> w.w_busy <- None
        | _ -> ())
  in
  let on_corrupt w =
    stats.s_corrupt <- stats.s_corrupt + 1;
    Metrics.incr c_corrupt;
    kill_worker w;
    maybe_respawn ()
  in
  let on_msg w = function
    | Frame.Ack _ | Frame.Stop | Frame.Task _ | Frame.Request _
    | Frame.Reply _ | Frame.Reject _ ->
        ()
    | Frame.Result { shard; attempt = _; payload } -> (
        if shard < 0 || shard >= n then on_corrupt w
        else
          match (Marshal.from_string payload 0 : 'r * (string * int) list) with
          | r, deltas -> complete w shard r deltas
          | exception _ -> on_corrupt w)
    | Frame.Failed { shard; attempt = _; reason = _ } -> (
        (* Deterministic failure inside [f]: recompute in-process so
           the original exception propagates as it would have
           sequentially.  Only honoured for the shard this worker
           actually holds — anything else is protocol noise. *)
        match w.w_busy with
        | Some (s, _, _) when s = shard && results.(shard) = None ->
            w.w_busy <- None;
            degrade shard
        | _ -> ())
  in
  let rec drain w =
    if w.w_alive then
      match Frame.next w.w_reader with
      | `More -> ()
      | `Corrupt -> on_corrupt w
      | `Msg m ->
          on_msg w m;
          drain w
  in
  let buf = Bytes.create 65536 in
  (* Reads whatever the pipe holds; [`Eof] means the peer is gone. *)
  let read_once w =
    match Unix.read w.w_from buf 0 (Bytes.length buf) with
    | 0 -> `Eof
    | nread ->
        Frame.feed w.w_reader buf nread;
        `Data
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Data
    | exception Unix.Unix_error (_, _, _) -> `Eof
  in
  (* A dead worker's pipe may still hold completed results — drain
     them before charging it with the in-flight shard. *)
  let on_dead w =
    if w.w_alive then begin
      let rec slurp () =
        match read_once w with `Data -> slurp () | `Eof -> ()
      in
      slurp ();
      drain w;
      if w.w_alive then begin
        stats.s_crashes <- stats.s_crashes + 1;
        Metrics.incr c_crashes;
        kill_worker w;
        maybe_respawn ()
      end
    end
  in
  let send_task w shard =
    attempts.(shard) <- attempts.(shard) + 1;
    let att = attempts.(shard) in
    match Frame.write w.w_to (Frame.Task { shard; attempt = att }) with
    | () ->
        w.w_busy <- Some (shard, att, Qdp_obs.Clock.now ());
        Metrics.incr c_tasks
    | exception Unix.Unix_error (_, _, _) ->
        (* Dead before the task arrived: charge a crash, retry the
           shard elsewhere. *)
        w.w_busy <- Some (shard, att, Qdp_obs.Clock.now ());
        stats.s_crashes <- stats.s_crashes + 1;
        Metrics.incr c_crashes;
        kill_worker w;
        maybe_respawn ()
  in
  let old_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      (match old_sigpipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
      | None -> ());
      List.iter
        (fun w ->
          if w.w_alive then begin
            w.w_alive <- false;
            (try Frame.write w.w_to Frame.Stop with _ -> ());
            close_quiet w.w_to;
            close_quiet w.w_from;
            (match w.w_busy with
            | Some _ -> ( try Unix.kill w.w_pid Sys.sigkill with _ -> ())
            | None -> ());
            ignore (waitpid_retry [] w.w_pid)
          end)
        !pool)
    (fun () ->
      for _ = 1 to nworkers do
        ignore (spawn ())
      done;
      while !outstanding > 0 && alive () <> [] do
        (* Monotonic-clamped: a backwards NTP step must not revive an
           expired backoff entry or stretch a shard deadline. *)
        let now = Qdp_obs.Clock.now () in
        (* promote delayed shards whose backoff has elapsed *)
        let due, still = List.partition (fun (t, _) -> t <= now) !delayed in
        delayed := still;
        List.iter (fun (_, s) -> Queue.push s ready) due;
        (* hand work to idle workers *)
        List.iter
          (fun w ->
            if w.w_alive && w.w_busy = None && not (Queue.is_empty ready)
            then send_task w (Queue.pop ready))
          (alive ());
        (* hang detection *)
        List.iter
          (fun w ->
            match w.w_busy with
            | Some (_, _, t0) when timeout > 0.0 && now -. t0 > timeout ->
                stats.s_hangs <- stats.s_hangs + 1;
                Metrics.incr c_hangs;
                kill_worker w;
                maybe_respawn ()
            | _ -> ())
          (alive ());
        let fds = List.map (fun w -> w.w_from) (alive ()) in
        if fds <> [] then begin
          let next_due =
            List.fold_left (fun acc (t, _) -> min acc t) infinity !delayed
          in
          let wait =
            let cap = 0.25 in
            let until_due = max 0.005 (next_due -. now) in
            min cap (if next_due = infinity then cap else until_due)
          in
          let readable =
            match Unix.select fds [] [] wait with
            | r, _, _ -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          List.iter
            (fun w ->
              if w.w_alive && List.memq w.w_from readable then
                match read_once w with
                | `Data -> drain w
                | `Eof -> on_dead w)
            (alive ());
          (* catch silent deaths select cannot see *)
          List.iter
            (fun w ->
              if w.w_alive then
                match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
                | 0, _ -> ()
                | _ -> on_dead w
                | exception Unix.Unix_error (Unix.ECHILD, _, _) -> on_dead w)
            (alive ())
        end
      done;
      (* nobody left to ask: everything still open degrades *)
      if !outstanding > 0 then begin
        let due = List.map snd !delayed in
        delayed := [];
        List.iter (fun s -> Queue.push s ready) due;
        while not (Queue.is_empty ready) do
          degrade (Queue.pop ready)
        done
      end;
      assert (!outstanding = 0));
  (* Degraded shards run here, in index order, workers already gone:
     an [f] that raises does so exactly as the sequential run would. *)
  List.iter
    (fun shard ->
      results.(shard) <- Some (f shard);
      stats.s_in_process <- stats.s_in_process + 1;
      Qdp_obs.Progress.step prog)
    (List.sort compare !degraded);
  Qdp_obs.Progress.finish prog;
  assert (stats.s_from_workers + stats.s_in_process = n);
  last_report_ref :=
    Some
      {
        rp_label = label;
        rp_workers = nworkers;
        rp_shards = n;
        rp_from_workers = stats.s_from_workers;
        rp_in_process = stats.s_in_process;
        rp_retries = stats.s_retries;
        rp_crashes = stats.s_crashes;
        rp_hangs = stats.s_hangs;
        rp_corrupt = stats.s_corrupt;
        rp_duplicates = stats.s_duplicates;
        rp_respawns = stats.s_respawns;
        rp_degraded = stats.s_degraded;
        rp_fallback = false;
      };
  Array.map (function Some r -> r | None -> assert false) results

(* -- public entry points -------------------------------------------- *)

(* Open [map_shards] regions, summed over every domain.  Only the
   outermost region may fork or count a fallback: a shard closure that
   itself calls [map_shards] (xval shards calling [monte_carlo_hits])
   runs the inner grid in-process.  Atomic because in-process shards
   run on pool domains. *)
let region_depth = Atomic.make 0

(* Worker processes were configured but this region cannot fork: run
   it in-process and say so. *)
let fallback ~label ~n f =
  let r = Qdp_par.map n f in
  Metrics.incr c_fallbacks;
  last_report_ref :=
    Some
      {
        rp_label = label;
        rp_workers = 0;
        rp_shards = n;
        rp_from_workers = 0;
        rp_in_process = n;
        rp_retries = 0;
        rp_crashes = 0;
        rp_hangs = 0;
        rp_corrupt = 0;
        rp_duplicates = 0;
        rp_respawns = 0;
        rp_degraded = 0;
        rp_fallback = true;
      };
  r

let map_shards ?(label = "shards") ~n f =
  if n <= 0 then [||]
  else begin
    let w = workers () in
    let outermost = Atomic.fetch_and_add region_depth 1 = 0 in
    Fun.protect
      ~finally:(fun () -> Atomic.decr region_depth)
      (fun () ->
        if w = 0 || n = 1 || not outermost then Qdp_par.map n f
        else if Qdp_par.pool_started () then fallback ~label ~n f
        else
          (* labels such as "attack/eq" carry '/', which joins profile
             paths: the section is "dist.attack.eq" *)
          Qdp_obs.section
            ("dist." ^ String.map (function '/' -> '.' | c -> c) label)
            (fun () ->
              match coordinator ~label ~n ~f (min w n) with
              | r -> r
              | exception Failure _ when Qdp_par.pool_started () ->
                  (* lost the fork-vs-domain race: another domain
                     started the pool after the check above *)
                  fallback ~label ~n f))
  end

let mc_chunk = 64

let monte_carlo_hits ?label ~st ~trials f =
  if trials <= 0 then 0
  else begin
    let nchunks = (trials + mc_chunk - 1) / mc_chunk in
    (* Chunk states peel off [st] in chunk order on the caller, so [st]
       advances identically whatever executes the chunks. *)
    let states = Array.init nchunks (fun _ -> Random.State.split st) in
    let chunk k =
      let b = k * mc_chunk in
      let e = min trials (b + mc_chunk) in
      let s = states.(k) in
      let h = ref 0 in
      for _ = b + 1 to e do
        if f s then incr h
      done;
      !h
    in
    let label = match label with Some l -> l ^ "/mc" | None -> "mc" in
    Array.fold_left ( + ) 0 (map_shards ~label ~n:nchunks chunk)
  end
