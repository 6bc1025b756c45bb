(* The always-on verification daemon behind `qdp serve`: a
   single-domain [Unix.select] event loop over a Unix-domain listen
   socket.  Concurrency is I/O-level — many sessions multiplexed, each
   with its own frame reader and output buffer — while evaluation
   itself stays sequential and deterministic (see eval.ml).

   Request lifecycle: Frame.Request arrives on a session; admission
   control either queues it (bounded queue) or answers immediately
   with a structured overload Reject.  Each loop iteration drains up
   to [batch_max] queued requests as one batch: requests are parsed,
   deduplicated by canonical key against the shared LRU cache and
   against each other (one evaluation fans out to every waiter), and
   the responses are buffered per session for flushing when the peer
   is writable.

   Shutdown: SIGTERM/SIGINT set the drain flag.  A draining server
   closes the listen socket and stops reading request bytes, but
   finishes every already-queued evaluation and flushes every output
   buffer before returning — in-flight work is never dropped. *)

module Frame = Qdp_dist.Frame

type config = {
  socket_path : string;
  queue_limit : int;  (** admission control: max queued requests *)
  cache_capacity : int;  (** shared LRU response cache entries *)
  batch_max : int;  (** max requests evaluated per loop iteration *)
  max_sessions : int;
}

let default_config =
  {
    socket_path = "/tmp/qdp-serve.sock";
    queue_limit = 64;
    cache_capacity = 512;
    batch_max = 16;
    max_sessions = 64;
  }

(* --- metrics --- *)

let obs_requests = Qdp_obs.Metrics.counter "serve.requests"
let obs_replies = Qdp_obs.Metrics.counter "serve.replies"
let obs_reject_overload = Qdp_obs.Metrics.counter "serve.rejects.overload"
let obs_reject_bad = Qdp_obs.Metrics.counter "serve.rejects.bad"
let obs_cache_hits = Qdp_obs.Metrics.counter "serve.cache.hits"
let obs_sessions = Qdp_obs.Metrics.gauge "serve.sessions"
let obs_latency = Qdp_obs.Metrics.histogram "serve.request.seconds"

(* --- sessions --- *)

type session = {
  sid : int;
  fd : Unix.file_descr;
  reader : Frame.reader;
  mutable pending : string;  (* bytes not yet accepted by the peer *)
  mutable sent : int;  (* prefix of [pending] already written *)
  mutable alive : bool;
}

type queued = {
  q_session : session;
  q_id : int;  (* client correlation id *)
  q_payload : string;
  q_arrival : float;
}

let enqueue_out s msg =
  if s.alive then begin
    let bytes = Frame.encode msg in
    if s.sent > 0 then begin
      s.pending <- String.sub s.pending s.sent (String.length s.pending - s.sent);
      s.sent <- 0
    end;
    s.pending <- s.pending ^ bytes
  end

let reply s ~id ~arrival payload =
  Qdp_obs.Metrics.incr obs_replies;
  Qdp_obs.Metrics.observe obs_latency (Qdp_obs.Clock.now () -. arrival);
  enqueue_out s (Frame.Reply { id; payload })

let reject ?(counter = obs_reject_bad) s ~id reason =
  Qdp_obs.Metrics.incr counter;
  enqueue_out s (Frame.Reject { id; reason })

let error_json kind detail =
  Printf.sprintf "{\"error\":%s,\"detail\":%s}" (Qdp_obs.Json.str kind)
    (Qdp_obs.Json.str detail)

(* --- the event loop --- *)

type state = {
  cfg : config;
  listen_fd : Unix.file_descr;
  sessions : (int, session) Hashtbl.t;
  queue : queued Queue.t;
  cache : (string, string) Lru.t;
  draining : bool ref;
  mutable next_sid : int;
  mutable accepting : bool;
}

let close_session st s =
  if s.alive then begin
    s.alive <- false;
    Hashtbl.remove st.sessions s.sid;
    Qdp_obs.Metrics.set obs_sessions (float_of_int (Hashtbl.length st.sessions));
    try Unix.close s.fd with Unix.Unix_error _ -> ()
  end

let accept_new st =
  match Unix.accept ~cloexec:true st.listen_fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | fd, _ ->
      if Hashtbl.length st.sessions >= st.cfg.max_sessions then
        (* structured reject, then hang up: the client sees why *)
        let s =
          { sid = -1; fd; reader = Frame.reader (); pending = ""; sent = 0; alive = true }
        in
        begin
          (try
             Frame.write fd
               (Frame.Reject
                  { id = 0; reason = error_json "overload" "session limit reached" })
           with Unix.Unix_error _ -> ());
          s.alive <- false;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
      else begin
        Unix.set_nonblock fd;
        let sid = st.next_sid in
        st.next_sid <- sid + 1;
        let s =
          { sid; fd; reader = Frame.reader (); pending = ""; sent = 0; alive = true }
        in
        Hashtbl.replace st.sessions sid s;
        Qdp_obs.Metrics.set obs_sessions (float_of_int (Hashtbl.length st.sessions))
      end

(* Admit or reject every complete frame currently buffered on [s]. *)
let drain_frames st s =
  let rec go () =
    match Frame.next s.reader with
    | `More -> ()
    | `Corrupt ->
        (* The framing is lost but the session is not: answer with a
           structured reject and resynchronize on the next magic. *)
        reject s ~id:0 (error_json "bad_frame" "frame failed validation");
        go ()
    | `Msg (Frame.Request { id; payload }) ->
        Qdp_obs.Metrics.incr obs_requests;
        if Queue.length st.queue >= st.cfg.queue_limit then
          reject ~counter:obs_reject_overload s ~id
            (error_json "overload"
               (Printf.sprintf "queue full (%d queued, limit %d)"
                  (Queue.length st.queue) st.cfg.queue_limit))
        else
          Queue.push
            {
              q_session = s;
              q_id = id;
              q_payload = payload;
              q_arrival = Qdp_obs.Clock.now ();
            }
            st.queue;
        go ()
    | `Msg _ ->
        reject s ~id:0 (error_json "bad_request" "expected a Request frame");
        go ()
  in
  go ()

let scratch = Bytes.create 65536

let read_session st s =
  match Unix.read s.fd scratch 0 (Bytes.length scratch) with
  | 0 -> close_session st s (* orderly EOF: mid-request disconnect frees it *)
  | n ->
      Frame.feed s.reader scratch n;
      drain_frames st s
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
    ->
      close_session st s

let flush_session st s =
  let len = String.length s.pending - s.sent in
  if len > 0 then
    match
      Unix.write_substring s.fd s.pending s.sent len
    with
    | n ->
        s.sent <- s.sent + n;
        if s.sent = String.length s.pending then begin
          s.pending <- "";
          s.sent <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
      ->
        close_session st s

(* One batch: pop up to [batch_max] requests, evaluate each distinct
   canonical key once (cache first, then batch-local dedup), fan the
   response out to every waiter. *)
let process_batch st =
  if not (Queue.is_empty st.queue) then begin
    Qdp_obs.section "serve.batch" @@ fun () ->
    let batch_results : (string, (string, string) result) Hashtbl.t =
      Hashtbl.create 8
    in
    let n = min st.cfg.batch_max (Queue.length st.queue) in
    for _ = 1 to n do
      let q = Queue.pop st.queue in
      if q.q_session.alive then begin
        match Request.of_string q.q_payload with
        | Error msg ->
            reject q.q_session ~id:q.q_id (error_json "bad_request" msg)
        | Ok r -> (
            let key = Request.key r in
            let result =
              match Lru.find st.cache key with
              | Some cached ->
                  Qdp_obs.Metrics.incr obs_cache_hits;
                  Ok cached
              | None -> (
                  match Hashtbl.find_opt batch_results key with
                  | Some res -> res
                  | None ->
                      let res = Eval.run r in
                      (match res with
                      | Ok response -> Lru.add st.cache key response
                      | Error _ -> ());
                      Hashtbl.replace batch_results key res;
                      res)
            in
            match result with
            | Ok response -> reply q.q_session ~id:q.q_id ~arrival:q.q_arrival response
            | Error msg ->
                reject q.q_session ~id:q.q_id (error_json "eval_error" msg))
      end
    done
  end

(* A drained server has nothing queued and nothing buffered. *)
let quiescent st =
  Queue.is_empty st.queue
  && Hashtbl.fold
       (fun _ s acc -> acc && String.length s.pending - s.sent = 0)
       st.sessions true

let stop_accepting st =
  if st.accepting then begin
    st.accepting <- false;
    (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
    try Unix.unlink st.cfg.socket_path with Unix.Unix_error _ -> ()
  end

let run ?(config = default_config) () =
  (* A dead client must surface as EPIPE on write, not kill the
     process. *)
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let draining = ref false in
  let handle = Sys.Signal_handle (fun _ -> draining := true) in
  let prev_term = Sys.signal Sys.sigterm handle in
  let prev_int = Sys.signal Sys.sigint handle in
  (match Unix.lstat config.socket_path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink config.socket_path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let st =
    {
      cfg = config;
      listen_fd;
      sessions = Hashtbl.create 32;
      queue = Queue.create ();
      cache = Lru.create config.cache_capacity;
      draining;
      next_sid = 0;
      accepting = true;
    }
  in
  let finally () =
    stop_accepting st;
    Hashtbl.iter (fun _ s -> try Unix.close s.fd with Unix.Unix_error _ -> ())
      st.sessions;
    Hashtbl.reset st.sessions;
    Sys.set_signal Sys.sigpipe prev_pipe;
    Sys.set_signal Sys.sigterm prev_term;
    Sys.set_signal Sys.sigint prev_int
  in
  Fun.protect ~finally @@ fun () ->
  let continue = ref true in
  while !continue do
    (* Drain discipline: stop accepting and stop reading, but finish
       queued evaluations and flush buffered responses first. *)
    if !draining then stop_accepting st;
    if !draining && quiescent st then continue := false
    else begin
      let read_fds =
        (if st.accepting && not !draining then [ st.listen_fd ] else [])
        @
        if !draining then []
        else Hashtbl.fold (fun _ s acc -> s.fd :: acc) st.sessions []
      in
      let write_fds =
        Hashtbl.fold
          (fun _ s acc ->
            if String.length s.pending - s.sent > 0 then s.fd :: acc else acc)
          st.sessions []
      in
      (* Never select-sleep while work is queued; otherwise nap
         briefly so drain signals are noticed promptly. *)
      let timeout = if Queue.is_empty st.queue then 0.1 else 0. in
      match Unix.select read_fds write_fds [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
          if st.accepting && List.memq st.listen_fd readable then
            accept_new st;
          let by_fd fd =
            Hashtbl.fold
              (fun _ s acc -> if s.fd == fd then Some s else acc)
              st.sessions None
          in
          List.iter
            (fun fd ->
              if fd != st.listen_fd then
                match by_fd fd with
                | Some s -> read_session st s
                | None -> ())
            readable;
          process_batch st;
          List.iter
            (fun fd ->
              match by_fd fd with Some s -> flush_session st s | None -> ())
            writable;
          (* Responses generated this iteration should not wait for
             the next select round-trip if the peer is writable. *)
          Hashtbl.iter
            (fun _ s ->
              if String.length s.pending - s.sent > 0 then flush_session st s)
            st.sessions
    end
  done
