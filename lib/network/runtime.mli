(** Synchronous round-based message-passing runtime with interactive
    turn schedules.

    Distributed verification protocols (Definition 5/6) run in a fixed
    number of synchronous rounds: in every round each node reads its
    inbox, updates local state and posts messages to neighbours; after
    the last round every node outputs accept or reject.  This engine
    executes such node programs on a {!Graph.t}, enforces that messages
    travel only along edges, and accounts per-edge traffic so protocol
    implementations can report their measured message complexity.

    An execution is driven by a {e turn schedule} ({!Turn.t} list): in
    a prover turn the (untrusted, centralised) prover writes a message
    directly to any subset of nodes; in a verifier turn each node first
    receives fresh private randomness (its {e coin} for that turn) and
    then the nodes run a block of synchronous communication rounds on
    the graph.  The classic one-shot dMA pipeline — Merlin distributes
    certificates, Arthur's nodes verify — is the special case
    {!Turn.one_shot}, and {!run} executes exactly that schedule, so all
    one-shot protocols pass through the same engine as the multi-turn
    dQIP family of Le Gall–Miyamoto–Nishimura (arXiv:2210.01390).

    Executions can optionally run under a {!Fault} injector: messages
    are then dropped, duplicated or corrupted per the fault plan and
    crash-stopped nodes freeze, with every injected event tallied in
    the returned {!stats}.  The injector carries its own RNG, so the
    protocol's randomness is untouched by the fault layer.  A fault
    plan may target a single turn of the schedule
    ([Fault.spec.turn]); delivery-time faults then fire only inside
    that turn. *)

(** Per-node verdict after the final round. *)
type verdict = Accept | Reject

(** [global_verdict vs] is [Accept] iff every node accepts — the
    acceptance criterion of distributed verification. *)
val global_verdict : verdict array -> verdict

(** [accepted (verdicts, stats)] reduces a run's raw per-node verdicts
    to [global_verdict verdicts = Accept], keeping the stats. *)
val accepted : verdict array * 'a -> bool * 'a

(** Raised when a node (or the prover) addresses a message to a
    non-neighbour (resp. a non-existent node): a bug in the node
    program (or byzantine behaviour a fault harness wants to observe),
    reported with full structure — including the schedule turn it
    happened in — so callers can record it instead of aborting a whole
    sweep.  [node] is [-1] when the offender is the prover. *)
exception Protocol_error of { node : int; round : int; turn : int; target : int }

(** Raised by {!run_turns} when an execution overruns its wall-clock
    deadline (checked at turn and round boundaries).  The fault
    harness treats it like a detected error — reject the run, count
    it, retry under a [Retry] recovery plan — which is the
    timeout-as-reject discipline of the replicated-data line
    (arXiv:2002.10018) applied to the control plane. *)
exception Deadline_exceeded of { elapsed_s : float; limit_s : float }

(** The default execution deadline, in seconds: [300.].  Generous on
    purpose — it exists to catch wedged executions, not to race
    legitimate ones — and overridable per process via [QDP_TIMEOUT],
    {!set_deadline} (the [--timeout] flag), or per call via
    [?deadline] on {!run_turns}.  A value [<= 0] disables the check.
    Note that a finite deadline makes rejection timing-dependent:
    keep it far above any legitimate run when byte-reproducibility
    matters. *)
val default_deadline : float

(** [deadline ()] is the current process-wide deadline; the first
    read resolves [QDP_TIMEOUT] when set (a value that does not parse,
    or NaN, falls back to {!default_deadline}). *)
val deadline : unit -> float

(** [set_deadline d] overrides it (wins over the environment).
    @raise Invalid_argument on NaN. *)
val set_deadline : float -> unit

(** {2 Turn schedules} *)

module Turn : sig
  (** One entry of an interactive execution schedule.

      [Prover] lets the prover write one message to any subset of
      nodes (delivered via the program's [tp_deliver], outside the
      communication graph — the prover speaks to every node directly
      in the dQIP model).

      [Verifier { rounds; coin_range }] first deals each node a fresh
      uniform coin in [\[0, coin_range)] (no randomness is consumed at
      all when [coin_range <= 1] — the deterministic-verifier case),
      then runs [rounds] synchronous communication rounds on the
      graph.  The global round counter keeps increasing across
      verifier turns, so round-indexed fault plans are unambiguous. *)
  type t =
    | Prover
    | Verifier of { rounds : int; coin_range : int }

  (** [one_shot ~rounds] is the classic dMA schedule: one prover turn
      (the certificate), then a deterministic-coin verifier turn of
      [rounds] communication rounds. *)
  val one_shot : rounds:int -> t list

  (** Total communication rounds over all verifier entries. *)
  val total_rounds : t list -> int

  (** Number of turns in the interactive-proof sense of
      arXiv:2210.01390: every prover turn counts, and a verifier turn
      counts iff its coins are later revealed to the prover (i.e. a
      prover turn follows it and [coin_range > 1]).  Private
      verification randomness is not a message turn, so
      [message_turns (one_shot ~rounds)] is [1]. *)
  val message_turns : t list -> int
end

(** {2 Transcripts} *)

module Transcript : sig
  (** What one schedule entry contributed to the interaction. *)
  type 'm entry =
    | Prover_messages of (int * 'm) list
        (** [(node, payload)] prover writes as delivered (after any
            fault injection), in write order *)
    | Verifier_coins of int array
        (** the per-node coins dealt at the start of the verifier
            turn; [[||]] when [coin_range <= 1] *)

  type 'm t

  (** Entries in schedule order; after a full execution there is one
      per schedule entry. *)
  val entries : 'm t -> 'm entry list

  (** [coins t ~turn] is the coin array recorded at schedule entry
      [turn] (1-based), or [[||]] if that entry was not a coin-dealing
      verifier turn. *)
  val coins : 'm t -> turn:int -> int array

  (** [prover_messages t ~turn] is the delivered prover writes at
      schedule entry [turn] (1-based), or [[]]. *)
  val prover_messages : 'm t -> turn:int -> (int * 'm) list
end

(** A node program over state ['s] and message payloads ['m] for the
    one-shot engine.  The runtime calls [init] once, [round] once per
    round (with the inbox holding [(sender, payload)] pairs in sender
    order), and [finish] after the last round. *)
type ('s, 'm) program = {
  init : int -> 's;
  round : round:int -> id:int -> 's -> inbox:(int * 'm) list -> 's * (int * 'm) list;
  finish : id:int -> 's -> verdict;
}

(** A node program for the turn-based engine.  [tp_init] runs once per
    node; [tp_deliver] absorbs one prover write into the node's state;
    [tp_round] is the per-round step — [turn] is the 1-based schedule
    index, [round] the global round counter and [coin] the node's coin
    for the current verifier turn (0 when [coin_range <= 1]); and
    [tp_finish] decides, with the full interaction {!Transcript.t} in
    hand, after the schedule is exhausted. *)
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

(** Traffic accounting for one execution. *)
type stats = {
  messages : int;  (** total node-to-node messages delivered (after fault injection) *)
  rounds_run : int;
  turns_run : int;  (** schedule entries executed *)
  prover_messages : int;
      (** prover writes delivered to nodes (after fault injection) *)
  per_edge : ((int * int) * int) list;
      (** messages per undirected edge, edges as [(min, max)] *)
  down : int list;  (** nodes crash-stopped by the final round, sorted *)
  faults : Fault.counts option;
      (** injected-event tally; [None] when no injector was attached *)
}

(** [run_turns ?faults ?st g ~schedule ~prover program] executes the
    turn schedule and returns per-node verdicts, traffic stats and the
    full transcript.  The [prover] callback is invoked once per prover
    turn with the transcript so far (coins dealt in earlier verifier
    turns are visible — the public-coin model) and returns the
    [(node, payload)] writes for that turn.  [st] supplies the
    verifier's coin randomness and is required iff some verifier turn
    has [coin_range > 1]; the engine draws exactly [Graph.size g]
    coins per such turn, so executions are reproducible from the seed
    at any [--jobs] value.  With [faults], node-to-node deliveries
    pass through the injector as in {!run}, prover writes pass through
    the default link model, and both are bypassed on turns outside the
    plan's [turn] target (crash-stop remains global: a crashed node
    does not come back between turns).  [deadline] bounds the
    execution's wall-clock time (default: {!deadline}[ ()]; [<= 0]
    disables).
    @raise Protocol_error if a node addresses a non-neighbour or the
    prover addresses a node outside the graph.
    @raise Deadline_exceeded if the execution overruns its deadline.
    @raise Invalid_argument if coins are needed and [st] is missing. *)
val run_turns :
  ?faults:'m Fault.t ->
  ?st:Random.State.t ->
  ?deadline:float ->
  Graph.t ->
  schedule:Turn.t list ->
  prover:(turn:int -> 'm Transcript.t -> (int * 'm) list) ->
  ('s, 'm) turn_program ->
  verdict array * stats * 'm Transcript.t

(** [run ?faults g ~rounds program] executes the one-shot schedule
    {!Turn.one_shot} through {!run_turns} — the program's certificate
    is baked into [init], the prover turn carries nothing, and the
    verifier turn is deterministic, so behaviour (verdicts, stats
    fields shared with the pre-turn engine, RNG consumption: none) is
    unchanged from the historical one-shot runtime.
    @raise Protocol_error if a node addresses a non-neighbour. *)
val run :
  ?faults:'m Fault.t -> Graph.t -> rounds:int -> ('s, 'm) program -> verdict array * stats

(** [estimate_acceptance ~st ~trials f] runs the randomized trial [f]
    (typically a prepared backend's run reduced by {!accepted})
    [trials] times and returns the empirical acceptance frequency.
    The trials run through [Qdp_dist.monte_carlo_hits] in fixed chunks
    of [Qdp_dist.mc_chunk], each chunk on an RNG state split off [st]
    in chunk order, so the frequency — and the post-call position of
    [st] — are byte-identical at every [--jobs]/[--workers] value.
    Threading [st] — never the global RNG — keeps every experiment
    bit-reproducible from a seed. *)
val estimate_acceptance :
  st:Random.State.t -> trials:int -> (Random.State.t -> bool) -> float

(** {2 Confidence intervals} *)

(** A Wilson score interval around an empirical frequency. *)
type interval = {
  point : float;  (** the raw frequency hits/trials *)
  lower : float;
  upper : float;
  ci_trials : int;
}

(** [wilson ?z ~hits ~trials ()] is the Wilson score interval at
    critical value [z] (default 5, a ~6e-7 two-sided tail — the same
    width the differential cross-validation harness
    ([Dqma.cross_validate]) demands, so ad-hoc callers and the harness
    agree on what "statistically consistent" means) — unlike the
    normal approximation it stays inside [0, 1] and behaves at the
    endpoints, which is exactly where deterministic-verdict protocols
    live.
    @raise Invalid_argument on [trials <= 0] or [hits] out of range. *)
val wilson : ?z:float -> hits:int -> trials:int -> unit -> interval
