type verdict = Accept | Reject

let global_verdict vs =
  if Array.for_all (fun v -> v = Accept) vs then Accept else Reject

let accepted (verdicts, x) = (global_verdict verdicts = Accept, x)

exception Protocol_error of { node : int; round : int; turn : int; target : int }

exception Deadline_exceeded of { elapsed_s : float; limit_s : float }

let () =
  Printexc.register_printer (function
    | Protocol_error { node; round; turn; target } ->
        Some
          (Printf.sprintf
             "Runtime.Protocol_error: node %d sent to non-neighbour %d in \
              round %d of turn %d"
             node target round turn)
    | Deadline_exceeded { elapsed_s; limit_s } ->
        Some
          (Printf.sprintf
             "Runtime.Deadline_exceeded: execution ran %.3fs against a %.3fs \
              deadline"
             elapsed_s limit_s)
    | _ -> None)

(* -- execution deadline -------------------------------------------- *)

let default_deadline = 300.

(* None = unresolved; [set_deadline] (the [--timeout] flag) wins over
   the [QDP_TIMEOUT] environment variable. *)
let deadline_cfg : float option ref = ref None

let deadline () =
  match !deadline_cfg with
  | Some d -> d
  | None ->
      let d =
        match Sys.getenv_opt "QDP_TIMEOUT" with
        | Some s -> (
            match float_of_string_opt (String.trim s) with
            | Some v when not (Float.is_nan v) -> v
            | Some _ | None -> default_deadline)
        | None -> default_deadline
      in
      deadline_cfg := Some d;
      d

(* NaN fails every comparison, so [limit > 0.] would read it as
   "disabled" without a word; only [<= 0] disables. *)
let set_deadline d =
  if Float.is_nan d then invalid_arg "Runtime.set_deadline: NaN";
  deadline_cfg := Some d

module Turn = struct
  type t =
    | Prover
    | Verifier of { rounds : int; coin_range : int }

  let one_shot ~rounds = [ Prover; Verifier { rounds; coin_range = 0 } ]

  let total_rounds schedule =
    List.fold_left
      (fun acc -> function
        | Prover -> acc
        | Verifier { rounds; _ } -> acc + rounds)
      0 schedule

  let message_turns schedule =
    (* Turns in the interactive-proof sense: prover messages always
       count; a verifier turn counts only when its coins reach the
       prover, i.e. a prover turn still follows.  Coins the verifier
       keeps to itself are just private verification randomness. *)
    let rec go acc = function
      | [] -> acc
      | Prover :: rest -> go (acc + 1) rest
      | Verifier { coin_range; _ } :: rest ->
          let revealed =
            coin_range > 1
            && List.exists (function Prover -> true | Verifier _ -> false) rest
          in
          go (if revealed then acc + 1 else acc) rest
    in
    go 0 schedule
end

module Transcript = struct
  type 'm entry =
    | Prover_messages of (int * 'm) list
    | Verifier_coins of int array

  (* Entries are consed as the schedule advances, so the head is the
     latest turn; [entries] restores schedule order. *)
  type 'm t = { rev_entries : 'm entry list }

  let empty = { rev_entries = [] }
  let push t e = { rev_entries = e :: t.rev_entries }
  let entries t = List.rev t.rev_entries

  let coins t ~turn =
    match List.nth_opt (entries t) (turn - 1) with
    | Some (Verifier_coins c) -> c
    | Some (Prover_messages _) | None -> [||]

  let prover_messages t ~turn =
    match List.nth_opt (entries t) (turn - 1) with
    | Some (Prover_messages ms) -> ms
    | Some (Verifier_coins _) | None -> []
end

type ('s, 'm) program = {
  init : int -> 's;
  round : round:int -> id:int -> 's -> inbox:(int * 'm) list -> 's * (int * 'm) list;
  finish : id:int -> 's -> verdict;
}

type ('s, 'm) turn_program = {
  tp_init : int -> 's;
  tp_deliver : turn:int -> id:int -> 's -> 'm -> 's;
  tp_round :
    turn:int ->
    round:int ->
    coin:int ->
    id:int ->
    's ->
    inbox:(int * 'm) list ->
    's * (int * 'm) list;
  tp_finish : transcript:'m Transcript.t -> id:int -> 's -> verdict;
}

type stats = {
  messages : int;
  rounds_run : int;
  turns_run : int;
  prover_messages : int;
  per_edge : ((int * int) * int) list;
  down : int list;
  faults : Fault.counts option;
}

(* Observability: all updates below are inert until [Qdp_obs.set_enabled],
   so the message loop keeps its uninstrumented cost in normal runs. *)
let obs_runs = Qdp_obs.Metrics.counter "runtime.runs"
let obs_messages = Qdp_obs.Metrics.counter "runtime.messages"
let obs_round_messages = Qdp_obs.Metrics.histogram "runtime.round_messages"
let obs_edges_active = Qdp_obs.Metrics.gauge "runtime.edges_active"
let obs_payload_words = Qdp_obs.Metrics.gauge "runtime.max_payload_words"
let obs_prover_messages = Qdp_obs.Metrics.counter "runtime.prover_messages"

let run_turns ?faults ?st ?deadline:deadline_opt g ~schedule ~prover program =
  let n = Graph.size g in
  let schedule_rounds = Turn.total_rounds schedule in
  (* Wall-clock guard: checked at turn and round boundaries, so a
     wedged or pathological execution surfaces as [Deadline_exceeded]
     instead of hanging the harness.  [limit <= 0] disables it; the
     default is generous enough that no legitimate run ever trips. *)
  let limit =
    match deadline_opt with
    | Some d when Float.is_nan d ->
        invalid_arg "Runtime.run_turns: NaN deadline"
    | Some d -> d
    | None -> deadline ()
  in
  let check_deadline =
    if limit > 0. then begin
      (* [Qdp_obs.Clock.now], not raw [gettimeofday]: with the raw
         clock a backwards NTP step makes [elapsed_s] negative (the
         deadline silently stops firing), and a forwards step right
         after [t0] fires it spuriously.  The clamped clock keeps
         elapsed time non-negative and non-decreasing. *)
      let t0 = Qdp_obs.Clock.now () in
      fun () ->
        let elapsed_s = Qdp_obs.Clock.now () -. t0 in
        if elapsed_s > limit then
          raise (Deadline_exceeded { elapsed_s; limit_s = limit })
    end
    else fun () -> ()
  in
  Qdp_obs.Metrics.incr obs_runs;
  Qdp_obs.section "runtime"
    ~attrs:(fun () -> [ ("nodes", Qdp_obs.Trace.Int n);
                        ("rounds", Qdp_obs.Trace.Int schedule_rounds);
                        ("turns", Qdp_obs.Trace.Int (List.length schedule)) ])
  @@ fun () ->
  let obs_on = Qdp_obs.enabled () in
  let states = Array.init n program.tp_init in
  let inboxes = Array.make n [] in
  let traffic = Array.make (Graph.edge_count g) 0 in
  let total = ref 0 in
  let prover_total = ref 0 in
  let round_no = ref 0 in
  let transcript = ref Transcript.empty in
  (* Crash-stop is a global node event — a node that went down in turn
     k does not come back in turn k+1 — so [node_up] always consults
     the injector.  Delivery-time faults, in contrast, honour the
     plan's turn target. *)
  let node_up ~round ~id =
    match faults with
    | None -> true
    | Some inj -> Fault.node_up inj ~round ~id
  in
  let faults_for ~turn =
    match faults with
    | Some inj when Fault.active inj ~turn -> Some inj
    | Some _ | None -> None
  in
  let run_round ~turn ~inj ~coins r =
    check_deadline ();
    let before = !total in
    let outboxes = Array.make n [] in
    for u = 0 to n - 1 do
      if node_up ~round:r ~id:u then begin
        let inbox = List.sort (fun (a, _) (b, _) -> compare a b) inboxes.(u) in
        let coin = if Array.length coins = 0 then 0 else coins.(u) in
        let state', out =
          program.tp_round ~turn ~round:r ~coin ~id:u states.(u) ~inbox
        in
        states.(u) <- state';
        List.iter
          (fun (dest, _) ->
            if not (Graph.has_edge g u dest) then
              raise (Protocol_error { node = u; round = r; turn; target = dest }))
          out;
        outboxes.(u) <- out
      end
      else begin
        (* crash-stopped: the node freezes and its inbox is lost *)
        match faults with
        | Some inj when inboxes.(u) <> [] ->
            Fault.suppress inj ~n:(List.length inboxes.(u))
        | _ -> ()
      end
    done;
    Array.fill inboxes 0 n [];
    Array.iteri
      (fun u out ->
        List.iter
          (fun (dest, payload) ->
            let e = Graph.edge_id g u dest in
            let deliveries =
              match inj with
              | None -> [ payload ]
              | Some inj -> Fault.deliver inj ~round:r ~src:u ~dst:dest payload
            in
            List.iter
              (fun payload ->
                inboxes.(dest) <- (u, payload) :: inboxes.(dest);
                incr total;
                if obs_on then
                  Qdp_obs.Metrics.set_max obs_payload_words
                    (float_of_int (Obj.reachable_words (Obj.repr payload)));
                traffic.(e) <- traffic.(e) + 1)
              deliveries)
          out)
      outboxes;
    Qdp_obs.Metrics.incr obs_messages ~by:(!total - before);
    Qdp_obs.Metrics.observe obs_round_messages (float_of_int (!total - before))
  in
  List.iteri
    (fun i entry ->
      let turn = i + 1 in
      check_deadline ();
      match entry with
      | Turn.Prover ->
          let writes = prover ~turn !transcript in
          let inj = faults_for ~turn in
          let delivered = ref [] in
          List.iter
            (fun (dst, payload) ->
              if dst < 0 || dst >= n then
                raise
                  (Protocol_error
                     { node = -1; round = !round_no; turn; target = dst });
              let copies =
                match inj with
                | None -> [ payload ]
                | Some inj -> Fault.deliver_direct inj ~dst payload
              in
              List.iter
                (fun payload ->
                  if node_up ~round:(!round_no + 1) ~id:dst then begin
                    states.(dst) <-
                      program.tp_deliver ~turn ~id:dst states.(dst) payload;
                    incr prover_total;
                    delivered := (dst, payload) :: !delivered
                  end
                  else
                    match faults with
                    | Some inj -> Fault.suppress inj ~n:1
                    | None -> ())
                copies)
            writes;
          Qdp_obs.Metrics.incr obs_prover_messages ~by:(List.length !delivered);
          transcript :=
            Transcript.push !transcript
              (Transcript.Prover_messages (List.rev !delivered))
      | Turn.Verifier { rounds; coin_range } ->
          let coins =
            if coin_range > 1 then
              match st with
              | None ->
                  invalid_arg
                    "Runtime.run_turns: a verifier turn draws coins but no ~st \
                     was supplied"
              | Some st -> Array.init n (fun _ -> Random.State.int st coin_range)
            else [||]
          in
          transcript :=
            Transcript.push !transcript (Transcript.Verifier_coins coins);
          let inj = faults_for ~turn in
          for _ = 1 to rounds do
            incr round_no;
            run_round ~turn ~inj ~coins !round_no
          done)
    schedule;
  let transcript = !transcript in
  let verdicts =
    Array.init n (fun u -> program.tp_finish ~transcript ~id:u states.(u))
  in
  (* edge ids follow [Graph.edges] order, so this is sorted by edge *)
  let per_edge = ref [] in
  for e = Array.length traffic - 1 downto 0 do
    if traffic.(e) > 0 then
      per_edge := (Graph.edge g e, traffic.(e)) :: !per_edge
  done;
  let per_edge = !per_edge in
  Qdp_obs.Metrics.set_max obs_edges_active (float_of_int (List.length per_edge));
  let down, fault_counts =
    match faults with
    | None -> ([], None)
    | Some inj -> (Fault.down inj ~rounds:!round_no, Some (Fault.counts inj))
  in
  ( verdicts,
    {
      messages = !total;
      rounds_run = !round_no;
      turns_run = List.length schedule;
      prover_messages = !prover_total;
      per_edge;
      down;
      faults = fault_counts;
    },
    transcript )

let run ?faults g ~rounds program =
  (* The historical one-shot pipeline: the certificate is baked into
     [init], so the prover turn carries nothing, the verifier turn is
     deterministic (no coins, no RNG touched) and verdicts, traffic
     and fault behaviour are exactly those of the pre-turn engine. *)
  let tp =
    {
      tp_init = program.init;
      tp_deliver = (fun ~turn:_ ~id:_ s _ -> s);
      tp_round =
        (fun ~turn:_ ~round ~coin:_ ~id s ~inbox ->
          program.round ~round ~id s ~inbox);
      tp_finish = (fun ~transcript:_ ~id s -> program.finish ~id s);
    }
  in
  let verdicts, stats, _ =
    run_turns ?faults g
      ~schedule:(Turn.one_shot ~rounds)
      ~prover:(fun ~turn:_ _ -> [])
      tp
  in
  (verdicts, stats)

let estimate_acceptance ~st ~trials f =
  Qdp_obs.section "estimate_acceptance" @@ fun () ->
  let hits = Qdp_dist.monte_carlo_hits ~label:"accept" ~st ~trials f in
  float_of_int hits /. float_of_int trials

(* ------------------------------------------------------------------ *)
(* Wilson score intervals                                              *)
(* ------------------------------------------------------------------ *)

type interval = {
  point : float;
  lower : float;
  upper : float;
  ci_trials : int;
}

let wilson ?(z = 5.) ~hits ~trials () =
  if trials <= 0 then invalid_arg "Runtime.wilson: trials must be positive";
  if hits < 0 || hits > trials then invalid_arg "Runtime.wilson: hits";
  let n = float_of_int trials in
  let p = float_of_int hits /. n in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let centre = (p +. (z2 /. (2. *. n))) /. denom in
  let half =
    z
    *. Float.sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n)))
    /. denom
  in
  {
    point = p;
    lower = Float.max 0. (centre -. half);
    upper = Float.min 1. (centre +. half);
    ci_trials = trials;
  }
