(* Reusable work-sharing pool over stdlib [Domain].  Workers are
   spawned lazily on the first parallel region and kept for the life
   of the process; a region pushes closures on a shared queue and the
   submitting domain helps drain it while it waits, so nested regions
   cannot deadlock even with a single worker.  See qdp_par.mli for the
   determinism contract. *)

(* -- job budget ---------------------------------------------------- *)

(* 0 = not yet resolved; resolution happens on first [jobs ()] call so
   [set_jobs] (the [--jobs] flag) wins over the environment. *)
let configured = Atomic.make 0

let resolve_jobs () =
  match Sys.getenv_opt "QDP_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let jobs () =
  let j = Atomic.get configured in
  if j > 0 then j
  else begin
    let j = resolve_jobs () in
    (* a concurrent [set_jobs] wins the race on purpose *)
    ignore (Atomic.compare_and_set configured 0 j);
    Atomic.get configured
  end

let set_jobs n =
  if n < 1 then invalid_arg "Qdp_par: set_jobs needs at least one job";
  Atomic.set configured n

(* -- effective parallelism ------------------------------------------ *)

(* BENCH_perf showed the parallel paths losing up to 7x on a 1-core
   host at --jobs 4: every domain beyond the core count is pure
   scheduling overhead, yet the pool honoured the requested job count
   unconditionally.  [effective_jobs] clamps the budget to
   the hardware so oversubscribed configurations degrade to the
   sequential path — byte-identical outputs, none of the domain
   machinery.  Tests that exercise pool semantics on small hosts opt
   back in via [set_oversubscribe]. *)

let cores = lazy (Domain.recommended_domain_count ())

let oversub = Atomic.make false
let oversubscribe () = Atomic.get oversub
let set_oversubscribe b = Atomic.set oversub b

let effective_jobs () =
  let j = jobs () in
  if oversubscribe () then j else min j (Lazy.force cores)

(* -- pool ---------------------------------------------------------- *)

let lock = Mutex.create ()
let wake = Condition.create ()

(* All of the following are guarded by [lock]. *)
let queue : (unit -> unit) Queue.t = Queue.create ()
let stopping = ref false
let spawned : unit Domain.t list ref = ref []

let worker () =
  let rec next () =
    Mutex.lock lock;
    let rec await () =
      if !stopping then None
      else
        match Queue.take_opt queue with
        | Some t -> Some t
        | None ->
            Condition.wait wake lock;
            await ()
    in
    let task = await () in
    Mutex.unlock lock;
    match task with
    | None -> ()
    | Some t ->
        t ();
        next ()
  in
  next ()

(* Called with [lock] held.  Workers beyond the first region's needs
   are added if [set_jobs] raised the budget later. *)
let ensure_workers target =
  while List.length !spawned < target do
    spawned := Domain.spawn worker :: !spawned
  done

(* Racy read on purpose: callers (the multi-process coordinator) only
   use it as a fork-safety hint and handle a lost race by catching the
   [Unix.fork] failure itself. *)
let pool_started () = !spawned <> []

let () =
  at_exit (fun () ->
      Mutex.lock lock;
      stopping := true;
      Condition.broadcast wake;
      let ds = !spawned in
      spawned := [];
      Mutex.unlock lock;
      List.iter Domain.join ds)

(* One task per index, all but the first distributed over the pool.
   Re-raises the earliest (by index) exception, with its backtrace,
   once every task has finished. *)
let map n f =
  if n <= 1 || effective_jobs () = 1 then Array.init n f
  else begin
    Qdp_obs.Prof.region @@ fun () ->
    let remaining = Atomic.make n in
    (* cells [i] are written by the domain running task [i] only; the
       final reads are ordered after all writes by [remaining]. *)
    let out = Array.make n None in
    let errors = Array.make n None in
    let task i () =
      (* [Prof.task] charges the wall time of this unit of work to the
         busy total of whichever domain executes it — worker or
         helping caller — for the busy/idle split in profile reports. *)
      (try out.(i) <- Some (Qdp_obs.Prof.task (fun () -> f i))
       with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      Atomic.decr remaining;
      Mutex.lock lock;
      Condition.broadcast wake;
      Mutex.unlock lock
    in
    Mutex.lock lock;
    ensure_workers (min (effective_jobs ()) n - 1);
    for i = 1 to n - 1 do
      Queue.push (task i) queue
    done;
    Condition.broadcast wake;
    Mutex.unlock lock;
    task 0 ();
    (* Help until the whole region is done.  The queue may hand us
       tasks from other (nested) regions — that is the point: a caller
       blocked on an inner region keeps the pool busy. *)
    let rec help () =
      if Atomic.get remaining > 0 then begin
        Mutex.lock lock;
        match Queue.take_opt queue with
        | Some t ->
            Mutex.unlock lock;
            t ();
            help ()
        | None ->
            if Atomic.get remaining > 0 then Condition.wait wake lock;
            Mutex.unlock lock;
            help ()
      end
    in
    help ();
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      errors;
    Array.map Option.get out
  end
