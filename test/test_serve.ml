(* Tests for the always-on verification service (lib/serve): the LRU
   cache, the request codec and canonical key, deterministic
   evaluation, and — via spawned daemon processes — the wire protocol,
   session isolation, admission control, graceful drain and the
   end-to-end determinism digest. *)

module Lru = Qdp_serve.Lru
module Request = Qdp_serve.Request
module Eval = Qdp_serve.Eval
module Server = Qdp_serve.Server
module Client = Qdp_serve.Client
module Load = Qdp_serve.Load
module Registry = Qdp_core.Registry
module Frame = Qdp_dist.Frame

(* Populate the protocol registry (the CLI does this in its own
   startup; the daemon processes spawned below run this binary, so they
   populate it the same way). *)
let () = Qdp_core.Protocols.init ()

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Lru --- *)

let test_lru_basic () =
  let t = Lru.create 3 in
  checki "empty" 0 (Lru.length t);
  checki "capacity" 3 (Lru.capacity t);
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  Lru.add t "c" 3;
  checki "full" 3 (Lru.length t);
  check Alcotest.(option int) "find b" (Some 2) (Lru.find t "b");
  check Alcotest.(option int) "find absent" None (Lru.find t "zz");
  checki "hits" 1 (Lru.hits t);
  checki "misses" 1 (Lru.misses t)

let test_lru_eviction_order () =
  let t = Lru.create 3 in
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  Lru.add t "c" 3;
  (* Touch "a": it becomes most recent, so "b" is now oldest. *)
  ignore (Lru.find t "a");
  Lru.add t "d" 4;
  checki "still at capacity" 3 (Lru.length t);
  check Alcotest.(option int) "b evicted" None (Lru.find t "b");
  check Alcotest.(option int) "a survived" (Some 1) (Lru.find t "a");
  check Alcotest.(option int) "c survived" (Some 3) (Lru.find t "c");
  check Alcotest.(option int) "d present" (Some 4) (Lru.find t "d")

let test_lru_overwrite () =
  let t = Lru.create 2 in
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  Lru.add t "a" 10;
  checki "overwrite does not grow" 2 (Lru.length t);
  check Alcotest.(option int) "new value" (Some 10) (Lru.find t "a");
  (* Overwriting refreshed "a", so adding one more evicts "b". *)
  Lru.add t "c" 3;
  check Alcotest.(option int) "b evicted" None (Lru.find t "b");
  check
    Alcotest.(list string)
    "recency order" [ "c"; "a" ] (Lru.keys t)

let test_lru_capacity_one () =
  let t = Lru.create 1 in
  Lru.add t "a" 1;
  Lru.add t "b" 2;
  checki "length" 1 (Lru.length t);
  check Alcotest.(option int) "only b" (Some 2) (Lru.find t "b");
  check Alcotest.(option int) "a gone" None (Lru.find t "a");
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create 0))

(* --- Request codec --- *)

let some_protocol () =
  match Registry.ids () with
  | id :: _ -> id
  | [] -> Alcotest.fail "registry is empty"

let test_request_roundtrip_plain () =
  let id = some_protocol () in
  let spec = { Registry.default_spec with Registry.seed = 7; n = 32 } in
  let r = Request.make ~spec id in
  match Request.of_string (Request.to_json r) with
  | Error msg -> Alcotest.fail ("decode failed: " ^ msg)
  | Ok r' ->
      check Alcotest.string "same key" (Request.key r) (Request.key r');
      checkb "same record" true (r = r')

let test_request_roundtrip_faulted () =
  let id = some_protocol () in
  let fault =
    { Request.f_kind = "drop"; f_strength = 0.25; f_turn = Some 2; f_trials = 9 }
  in
  let r = Request.make ~fault id in
  match Request.of_string (Request.to_json r) with
  | Error msg -> Alcotest.fail ("decode failed: " ^ msg)
  | Ok r' -> checkb "faulted record round-trips" true (r = r')

let test_request_key_discriminates () =
  let id = some_protocol () in
  let base = Request.make id in
  let spec2 = { Registry.default_spec with Registry.seed = 99 } in
  let variants =
    [
      Request.make ~spec:spec2 id;
      Request.make
        ~fault:
          { Request.f_kind = "drop"; f_strength = 0.1; f_turn = None; f_trials = 5 }
        id;
    ]
  in
  List.iter
    (fun v -> checkb "distinct key" false (Request.key base = Request.key v))
    variants;
  check Alcotest.string "key is stable" (Request.key base)
    (Request.key (Request.make id))

let test_request_validation () =
  let expect_error what s =
    match Request.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (what ^ ": expected an error")
  in
  expect_error "not json" "{nope";
  expect_error "not an object" "[1,2]";
  expect_error "missing protocol" "{\"seed\": 3}";
  expect_error "non-string protocol" "{\"protocol\": 5}";
  expect_error "unknown fault kind"
    "{\"protocol\": \"eq\", \"fault\": {\"kind\": \"gremlins\"}}";
  expect_error "fault strength out of range"
    "{\"protocol\": \"eq\", \"fault\": {\"kind\": \"drop\", \"strength\": 1.5}}";
  expect_error "n out of range" "{\"protocol\": \"eq\", \"n\": 0}";
  expect_error "non-integer seed" "{\"protocol\": \"eq\", \"seed\": \"x\"}"

let test_request_defaults () =
  let id = some_protocol () in
  match Request.of_string (Printf.sprintf "{\"protocol\": %S}" id) with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
      checkb "defaults to default_spec" true
        (r.Request.rq_spec = Registry.default_spec);
      checkb "no fault" true (r.Request.rq_fault = None)

(* --- Eval --- *)

let test_eval_deterministic () =
  let id = some_protocol () in
  let r = Request.make id in
  let a = Eval.run r and b = Eval.run r in
  (match (a, b) with
  | Ok x, Ok y -> check Alcotest.string "byte-identical responses" x y
  | _ -> Alcotest.fail "evaluation failed");
  match a with
  | Ok response ->
      (* The response is valid JSON advertising the protocol. *)
      let j = Qdp_obs.Json.parse response in
      checkb "has ok field" true
        (match Qdp_obs.Json.member "ok" j with
        | Some (Qdp_obs.Json.Bool _) -> true
        | _ -> false)
  | Error _ -> ()

let test_eval_unknown_protocol () =
  match Eval.run (Request.make "no-such-protocol") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for an unknown protocol"

let test_eval_run_string_garbage () =
  match Eval.run_string "]]][[" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

(* --- spawned daemon harness --- *)

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Printf.sprintf "/tmp/qdp-test-serve-%d-%d.sock" (Unix.getpid ())
    !socket_counter

(* Daemons run in a fresh process: this test binary re-executed with
   [daemon_flag] and the [Server.config] fields on argv.  Forking is
   not an option, because OCaml 5 forbids [Unix.fork] once a domain
   exists and the eval cases above may already have started the
   [Qdp_par] pool. *)
let daemon_flag = "--serve-daemon"

let daemon_argv (c : Server.config) =
  Array.of_list
    (Sys.executable_name :: daemon_flag :: c.Server.socket_path
    :: List.map string_of_int
         [ c.queue_limit; c.cache_capacity; c.batch_max; c.max_sessions ])

let () =
  match Sys.argv with
  | [| _; flag; socket_path; queue_limit; cache_capacity; batch_max;
       max_sessions |]
    when flag = daemon_flag ->
      let config =
        {
          Server.socket_path;
          queue_limit = int_of_string queue_limit;
          cache_capacity = int_of_string cache_capacity;
          batch_max = int_of_string batch_max;
          max_sessions = int_of_string max_sessions;
        }
      in
      Server.run ~config ();
      exit 0
  | _ -> ()

(* Spawns a daemon running [Server.run ~config] and hands the caller a
   connect-ready config; SIGTERMs and reaps the daemon on the way out. *)
let with_server ?(config = Server.default_config) f =
  let config = { config with Server.socket_path = fresh_socket () } in
  let pid =
    Unix.create_process_env Sys.executable_name (daemon_argv config)
      (Unix.environment ()) Unix.stdin Unix.stdout Unix.stderr
  in
  let term_sent = ref false in
  let stop () =
    if not !term_sent then begin
      term_sent := true;
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    end
  in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Unix.unlink config.Server.socket_path
      with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* Wait for the daemon to bind. *)
  let rec connect tries =
    match Client.connect config.Server.socket_path with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries < 250 ->
        Unix.sleepf 0.02;
        connect (tries + 1)
  in
  let first = connect 0 in
  Fun.protect ~finally:(fun () -> Client.close first) @@ fun () ->
  f ~config ~first ~stop ~pid

let plain_request ?spec () = Request.make ?spec (some_protocol ())

let expect_reply what = function
  | `Reply (_, response) -> response
  | `Reject (_, reason) -> Alcotest.fail (what ^ ": rejected: " ^ reason)
  | `Eof -> Alcotest.fail (what ^ ": unexpected EOF")

let reason_kind reason =
  match Qdp_obs.Json.parse reason with
  | j -> (
      match Qdp_obs.Json.member "error" j with
      | Some (Qdp_obs.Json.String k) -> k
      | _ -> "?")
  | exception Qdp_obs.Json.Parse_error _ -> "?"

(* --- daemon behavior --- *)

let test_serve_roundtrip () =
  with_server @@ fun ~config:_ ~first ~stop:_ ~pid:_ ->
  let r = plain_request () in
  let response =
    expect_reply "rpc" (Client.rpc first ~id:41 (Request.to_json r))
  in
  (* The server's answer is exactly the direct evaluation. *)
  (match Eval.run r with
  | Ok direct -> check Alcotest.string "server == direct" direct response
  | Error msg -> Alcotest.fail msg);
  (* Correlation ids echo back. *)
  match Client.rpc first ~id:97 (Request.to_json r) with
  | `Reply (id, _) -> checki "id echoed" 97 id
  | _ -> Alcotest.fail "expected a reply"

let test_serve_cache_consistent () =
  with_server @@ fun ~config ~first ~stop:_ ~pid:_ ->
  let r = plain_request () in
  let payload = Request.to_json r in
  let one = expect_reply "first" (Client.rpc first ~id:1 payload) in
  let two = expect_reply "second (cached)" (Client.rpc first ~id:2 payload) in
  check Alcotest.string "cache serves identical bytes" one two;
  (* A second session sees the same shared cache entry. *)
  let other = Client.connect config.Server.socket_path in
  Fun.protect ~finally:(fun () -> Client.close other) @@ fun () ->
  let three = expect_reply "other session" (Client.rpc other ~id:3 payload) in
  check Alcotest.string "shared across sessions" one three

let test_serve_malformed_frame () =
  with_server @@ fun ~config ~first ~stop:_ ~pid:_ ->
  (* Garbage bytes: framing is lost, session is not. *)
  Client.send_raw first "this is definitely not a QDF1 frame";
  (match Client.next_event first with
  | `Reject (0, reason) ->
      check Alcotest.string "structured reject" "bad_frame" (reason_kind reason)
  | `Reject (id, _) -> Alcotest.failf "reject with id %d, wanted 0" id
  | `Reply _ -> Alcotest.fail "reply to garbage"
  | `Eof -> Alcotest.fail "server hung up");
  (* Same session keeps working after resync. *)
  let r = plain_request () in
  ignore (expect_reply "after garbage" (Client.rpc first ~id:5 (Request.to_json r)));
  (* A structurally valid frame of the wrong kind is also rejected
     without killing the session. *)
  Client.send_raw first (Frame.encode Frame.Stop);
  (match Client.next_event first with
  | `Reject (_, reason) ->
      check Alcotest.string "bad kind" "bad_request" (reason_kind reason)
  | _ -> Alcotest.fail "expected a reject for a Stop frame");
  ignore (expect_reply "still alive" (Client.rpc first ~id:6 (Request.to_json r)));
  (* An unparsable request payload gets a structured reject too. *)
  (match Client.rpc first ~id:7 "{not json" with
  | `Reject (7, reason) ->
      check Alcotest.string "bad payload" "bad_request" (reason_kind reason)
  | _ -> Alcotest.fail "expected a bad_request reject");
  (* And other sessions were never disturbed. *)
  let other = Client.connect config.Server.socket_path in
  Fun.protect ~finally:(fun () -> Client.close other) @@ fun () ->
  ignore (expect_reply "other session" (Client.rpc other ~id:8 (Request.to_json r)))

let test_serve_disconnect_frees_session () =
  with_server @@ fun ~config ~first ~stop:_ ~pid:_ ->
  (* Open a session, send half a frame, and vanish. *)
  let doomed = Client.connect config.Server.socket_path in
  let whole = Frame.encode (Frame.Request { id = 1; payload = "x" }) in
  Client.send_raw doomed (String.sub whole 0 (String.length whole / 2));
  Client.close doomed;
  (* The server frees the session and keeps serving. *)
  let r = plain_request () in
  ignore (expect_reply "after disconnect" (Client.rpc first ~id:9 (Request.to_json r)))

let test_serve_overload_reject () =
  let config =
    { Server.default_config with Server.queue_limit = 2; batch_max = 1 }
  in
  with_server ~config @@ fun ~config:_ ~first ~stop:_ ~pid:_ ->
  let r = plain_request () in
  let payload = Request.to_json r in
  let burst = 8 in
  for id = 1 to burst do
    Client.send first ~id payload
  done;
  let replies = ref 0 and overloads = ref 0 in
  for _ = 1 to burst do
    match Client.next_event first with
    | `Reply _ -> incr replies
    | `Reject (_, reason) when reason_kind reason = "overload" -> incr overloads
    | `Reject (_, reason) -> Alcotest.fail ("unexpected reject: " ^ reason)
    | `Eof -> Alcotest.fail "unexpected EOF"
  done;
  checkb "some requests served" true (!replies >= 1);
  checkb "some requests shed" true (!overloads >= 1);
  checki "every request answered" burst (!replies + !overloads);
  (* Backpressure is advisory: the session still works afterwards. *)
  ignore (expect_reply "after overload" (Client.rpc first ~id:99 payload))

let test_serve_drain_under_load () =
  let config = { Server.default_config with Server.batch_max = 1 } in
  with_server ~config @@ fun ~config:_ ~first ~stop ~pid ->
  let r = plain_request () in
  let payload = Request.to_json r in
  let burst = 4 in
  for id = 1 to burst do
    Client.send first ~id payload
  done;
  (* Once the first reply is back the server has read the burst; the
     pause lets any straggling bytes land before the drain signal. *)
  ignore (expect_reply "first of burst" (Client.next_event first));
  Unix.sleepf 0.05;
  stop ();
  (* Drain: every queued request still gets its response... *)
  for _ = 2 to burst do
    ignore (expect_reply "drained reply" (Client.next_event first))
  done;
  (* ...then the server hangs up and exits cleanly. *)
  (match Client.next_event first with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected EOF after drain");
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "server did not exit cleanly"

let test_serve_rejects_session_flood () =
  let config = { Server.default_config with Server.max_sessions = 1 } in
  with_server ~config @@ fun ~config ~first ~stop:_ ~pid:_ ->
  (* [first] holds the only slot; the next connection gets a
     structured overload reject and a hang-up. *)
  let extra = Client.connect config.Server.socket_path in
  Fun.protect ~finally:(fun () -> Client.close extra) @@ fun () ->
  (match Client.next_event extra with
  | `Reject (_, reason) ->
      check Alcotest.string "session-limit reject" "overload" (reason_kind reason)
  | `Reply _ -> Alcotest.fail "unexpected reply"
  | `Eof -> Alcotest.fail "hung up without the structured reject");
  (match Client.next_event extra with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected hang-up after reject");
  let r = plain_request () in
  ignore (expect_reply "first session unaffected" (Client.rpc first ~id:3 (Request.to_json r)))

(* --- end-to-end determinism --- *)

let test_load_digest_matches_direct () =
  with_server @@ fun ~config ~first:_ ~stop:_ ~pid:_ ->
  let lcfg =
    {
      Load.default_config with
      Load.socket = config.Server.socket_path;
      clients = 3;
      rps = 60.;
      duration = 1.0;
    }
  in
  let r = Load.run ~config:lcfg () in
  checkb "every send answered" true
    (r.Load.lr_replies + r.Load.lr_errors
     = r.Load.lr_sent - r.Load.lr_overloads);
  check Alcotest.string "server digest == direct digest"
    (Load.direct_digest ~config:lcfg ())
    r.Load.lr_digest;
  (* The report's JSON parses and carries the digest. *)
  let j = Qdp_obs.Json.parse (Load.to_json r) in
  match Qdp_obs.Json.member "verdict_digest" j with
  | Some (Qdp_obs.Json.String d) -> check Alcotest.string "json digest" r.Load.lr_digest d
  | _ -> Alcotest.fail "verdict_digest missing from report"

(* Pacing schedule under a stepped fake clock: the k-th request is
   admitted exactly when the clock reaches t_start + k/rps, the select
   timeout counts down to that same instant, and a stalled clock never
   admits a burst. *)
let test_load_pacing_stepped_clock () =
  let t = ref 1000. in
  Qdp_obs.Clock.set_source (Some (fun () -> !t));
  Fun.protect ~finally:(fun () -> Qdp_obs.Clock.set_source None)
  @@ fun () ->
  let t_start = Qdp_obs.Clock.now () in
  let rps = 8. in
  (* replay the paced loop's gate: step the clock 125 ms at a time
     (exactly representable, so slot times are exact) for one
     simulated second and count admissions *)
  let sent = ref 0 in
  for i = 0 to 8 do
    t := t_start +. (0.125 *. float_of_int i);
    while Load.send_due ~t_start ~rps ~sent:!sent ~now:(Qdp_obs.Clock.now ()) do
      incr sent
    done
  done;
  (* clock advanced 1 s past t_start: requests 0..8 are due (the k-th
     leaves at k/rps), the 9th is not *)
  checki "admissions track the schedule" 9 !sent;
  checkb "next send not yet due" false
    (Load.send_due ~t_start ~rps ~sent:!sent ~now:(Qdp_obs.Clock.now ()));
  (* the select timeout is the gap to that same slot *)
  check (Alcotest.float 1e-9) "timeout counts down to the next slot"
    (Load.next_send_at ~t_start ~rps ~sent:!sent -. Qdp_obs.Clock.now ())
    (Load.pace_timeout ~t_start ~rps ~sent:!sent ~now:(Qdp_obs.Clock.now ()));
  (* past-due slot clamps to zero rather than going negative *)
  check (Alcotest.float 0.) "overdue timeout clamps at zero" 0.
    (Load.pace_timeout ~t_start ~rps ~sent:0 ~now:(Qdp_obs.Clock.now ()));
  (* a stalled clock admits nothing further *)
  let before = !sent in
  for _ = 1 to 5 do
    if Load.send_due ~t_start ~rps ~sent:!sent ~now:(Qdp_obs.Clock.now ())
    then incr sent
  done;
  checki "stalled clock, no burst" before !sent

let test_load_digest_order_insensitive () =
  let pairs = [ ("k1", "v1"); ("k2", "v2"); ("k3", "v3") ] in
  let shuffled = [ ("k3", "v3"); ("k1", "v1"); ("k2", "v2"); ("k1", "v1") ] in
  check Alcotest.string "sorted set digest" (Load.digest pairs)
    (Load.digest shuffled);
  checkb "different responses change it" false
    (Load.digest pairs = Load.digest [ ("k1", "v1"); ("k2", "v2"); ("k3", "X") ])

let () =
  Alcotest.run "serve"
    [
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "overwrite" `Quick test_lru_overwrite;
          Alcotest.test_case "capacity one" `Quick test_lru_capacity_one;
        ] );
      ( "request",
        [
          Alcotest.test_case "round-trip plain" `Quick test_request_roundtrip_plain;
          Alcotest.test_case "round-trip faulted" `Quick
            test_request_roundtrip_faulted;
          Alcotest.test_case "key discriminates" `Quick
            test_request_key_discriminates;
          Alcotest.test_case "validation" `Quick test_request_validation;
          Alcotest.test_case "defaults" `Quick test_request_defaults;
        ] );
      ( "eval",
        [
          Alcotest.test_case "deterministic" `Quick test_eval_deterministic;
          Alcotest.test_case "unknown protocol" `Quick test_eval_unknown_protocol;
          Alcotest.test_case "garbage input" `Quick test_eval_run_string_garbage;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "round-trip" `Quick test_serve_roundtrip;
          Alcotest.test_case "cache consistency" `Quick test_serve_cache_consistent;
          Alcotest.test_case "malformed frames" `Quick test_serve_malformed_frame;
          Alcotest.test_case "disconnect frees session" `Quick
            test_serve_disconnect_frees_session;
          Alcotest.test_case "overload reject" `Quick test_serve_overload_reject;
          Alcotest.test_case "drain under load" `Quick test_serve_drain_under_load;
          Alcotest.test_case "session flood" `Quick test_serve_rejects_session_flood;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "load digest == direct" `Quick
            test_load_digest_matches_direct;
          Alcotest.test_case "digest order-insensitive" `Quick
            test_load_digest_order_insensitive;
          Alcotest.test_case "pacing under stepped clock" `Quick
            test_load_pacing_stepped_clock;
        ] );
    ]
