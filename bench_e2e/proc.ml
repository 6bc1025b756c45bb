(* Process plumbing: the pinned execution settings and their read-back,
   the host block, child processes with a scrubbed environment, and
   the /proc readers behind the peak-RSS metric. *)

(* Seconds on CLOCK_MONOTONIC at nanosecond resolution: a hot-cache
   request takes about 30 us, too short for gettimeofday's
   microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- /proc --- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))

(* The value of a "Key:\tvalue" line of /proc/<pid>/status. *)
let status_field pid key =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> None
  | Some s ->
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = key ->
              Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
          | _ -> None)
        (String.split_on_char '\n' s)

(* VmHWM (peak resident set) in kB; [pid] is a number or "self". *)
let peak_rss_kb pid =
  match status_field pid "VmHWM" with
  | Some v -> (
      match String.split_on_char ' ' v with
      | kb :: _ -> int_of_string_opt kb
      | [] -> None)
  | None -> None

(* NUL-separated /proc/<pid>/{cmdline,environ}. *)
let proc_strings pid what =
  match read_file (Printf.sprintf "/proc/%d/%s" pid what) with
  | None -> []
  | Some s -> List.filter (( <> ) "") (String.split_on_char '\000' s)

(* --- host --- *)

(* CPUs this process may run on, as `nproc` counts them: the size of
   the affinity mask in /proc/self/status ("0-1,4"). *)
let nproc () =
  let count_range r =
    match String.split_on_char '-' r with
    | [ a ] -> Option.map (fun _ -> 1) (int_of_string_opt a)
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> Some (b - a + 1)
        | _ -> None)
    | _ -> None
  in
  match status_field "self" "Cpus_allowed_list" with
  | Some list ->
      List.fold_left
        (fun acc r ->
          match (acc, count_range r) with
          | Some a, Some c -> Some (a + c)
          | _ -> None)
        (Some 0) (String.split_on_char ',' list)
  | None -> None

let host_line () =
  Printf.sprintf "host nproc=%s recommended_domains=%d ocaml=%s"
    (match nproc () with Some n -> string_of_int n | None -> "unknown")
    (Domain.recommended_domain_count ())
    Sys.ocaml_version

(* --- pinned settings --- *)

exception Unpinned of string

(* Pin every execution setting a workload depends on and read each one
   back, so an ambient QDP_JOBS / QDP_WORKERS / QDP_CHAOS /
   QDP_TIMEOUT cannot change a workload silently.  [workers] is the
   only setting that differs between workloads. *)
let pin ~workers =
  Qdp_par.set_oversubscribe false;
  Qdp_par.set_jobs 1;
  Qdp_dist.set_workers workers;
  Qdp_dist.set_chaos 0.;
  Qdp_dist.set_shard_timeout 30.;
  Qdp_dist.set_max_attempts 4;
  Qdp_dist.set_respawn_budget (-1);
  Qdp_network.Runtime.set_deadline Qdp_network.Runtime.default_deadline;
  let check what ok = if not ok then raise (Unpinned what) in
  check "jobs" (Qdp_par.jobs () = 1 && Qdp_par.effective_jobs () = 1);
  check "workers" (Qdp_dist.workers () = workers);
  check "chaos" (Qdp_dist.chaos () = 0.);
  check "deadline"
    (Qdp_network.Runtime.deadline () = Qdp_network.Runtime.default_deadline);
  Printf.sprintf "settings jobs=%d workers=%d chaos=%g deadline=%g"
    (Qdp_par.jobs ()) (Qdp_dist.workers ()) (Qdp_dist.chaos ())
    (Qdp_network.Runtime.deadline ())

(* Children get the ambient environment minus every QDP_* variable;
   their settings come from flags only. *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"QDP_" kv))
       (Array.to_list (Unix.environment ())))

(* A child's settings, read back from /proc: its argv must contain
   every [flag value] pair and its environment no QDP_* variable. *)
let check_child_flags pid flags =
  let argv = Array.of_list (proc_strings pid "cmdline") in
  let has (flag, value) =
    let found = ref false in
    Array.iteri
      (fun i a ->
        if a = flag && i + 1 < Array.length argv && argv.(i + 1) = value then
          found := true)
      argv;
    !found
  in
  List.iter
    (fun ((flag, value) as fv) ->
      if not (has fv) then
        raise (Unpinned (Printf.sprintf "child %d lacks %s %s" pid flag value)))
    flags;
  if
    List.exists
      (String.starts_with ~prefix:"QDP_")
      (proc_strings pid "environ")
  then raise (Unpinned (Printf.sprintf "child %d inherited a QDP_* variable" pid))

(* --- child processes --- *)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

let rec waitpid_no_eintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_no_eintr flags pid

(* [capture prog args] runs [prog] to completion with stdout captured
   and stderr discarded (or passed through); returns (exit ok, stdout,
   peak RSS in kB).  The peak is the child's VmHWM as last sampled
   before it exited: /proc is polled every 20 ms while the output pipe
   is drained. *)
let capture ?(keep_stderr = false) prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = devnull () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close wr;
        Unix.close null)
      (fun () ->
        Unix.create_process_env prog
          (Array.of_list (prog :: args))
          (child_env ()) null wr
          (if keep_stderr then Unix.stderr else null))
  in
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let peak = ref 0 in
  let sample () =
    match peak_rss_kb (string_of_int pid) with
    | Some kb -> peak := max !peak kb
    | None -> ()
  in
  let eof = ref false in
  while not !eof do
    sample ();
    match Unix.select [ rd ] [] [] 0.02 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.read rd chunk 0 (Bytes.length chunk) with
        | 0 -> eof := true
        | n -> Buffer.add_subbytes buf chunk 0 n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  Unix.close rd;
  let _, status = waitpid_no_eintr [] pid in
  (status = Unix.WEXITED 0, Buffer.contents buf, !peak)

(* Stop a daemon the way its users do (SIGTERM = drain) and wait for
   it; a daemon still alive after 10 s is killed. *)
let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    match waitpid_no_eintr [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_no_eintr [] pid);
        false
    | _, status -> status = Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  wait ()
