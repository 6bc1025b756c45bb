(** Distributed Merlin-Arthur verification as a first-class value —
    Definitions 5-8 of the paper as code.

    A protocol packages the predicate, the honest prover, the exact
    acceptance function, a library of cheating provers, the repetition
    count and the cost accounting.  The generic harness then evaluates
    completeness and (attack-library) soundness uniformly, which is
    what the conformance runner ([bin/tables.exe check]) and the CLI
    iterate over.

    Every protocol module in this library is exposed here as an
    adapter, so downstream users can treat "a dQMA protocol" as a
    value: pick one, hand it instances, read off acceptance numbers
    and costs. *)

open Qdp_codes
open Qdp_network

(** Which proof/communication model the protocol lives in
    (Definitions 5, 6, 7, 8 — plus the classical-proof dQCMA variant
    of Section 1.5). *)
type model = DMA | DQMA | DQMA_sep | DQMA_sep_sep | DQCMA

(** [pp_model] prints e.g. ["dQMA^sep"]. *)
val pp_model : Format.formatter -> model -> unit

(** A verification protocol over instances ['i] with prover strategies
    ['p]. *)
type ('i, 'p) protocol = {
  name : string;
  model : model;
  rounds : int;
  turns : int;
      (** prover↔verifier message turns in the interactive-proof sense
          ({!Qdp_network.Runtime.Turn.message_turns}): 1 for every
          one-shot Merlin→Arthur protocol, >1 for the dQIP family
          (arXiv:2210.01390).  The acceptance functions below already
          average over the verifier's public coins, so {!evaluate} and
          {!cross_validate} treat interactive protocols uniformly —
          the sampled backend draws the coins, the analytic backend
          enumerates them. *)
  repetitions : int;  (** parallel repetitions applied by {!evaluate} *)
  value : 'i -> bool;  (** the predicate being verified *)
  honest : 'i -> 'p option;
      (** the completeness prover ([None] on no instances) *)
  accept : 'i -> 'p -> float;  (** exact single-repetition acceptance *)
  attacks : 'i -> (string * 'p) list;  (** cheating-prover library *)
  costs : 'i -> Report.costs;
}

(** The uniform evaluation of a protocol on an instance. *)
type evaluation = {
  instance_is_yes : bool;
  honest_accept : float;  (** amplified; 0 when [honest] is [None] *)
  best_attack : float;  (** amplified best of the attack library *)
  best_attack_name : string;
  meets_spec : bool;
      (** yes instances: honest acceptance >= 2/3; no instances: best
          attack <= 1/3 *)
}

(** [evaluate p inst] runs the harness. *)
val evaluate : ('i, 'p) protocol -> 'i -> evaluation

(** [pp_evaluation] prints a one-line summary. *)
val pp_evaluation : Format.formatter -> string * evaluation -> unit

(** {2 Adapters for the protocols in this library} *)

(** Instances of the two-party problems on a path: [(x, y)]. *)
type pair_instance = Gf2.t * Gf2.t

(** Instances of the multi-terminal problems: the network, terminal
    vertices, and per-terminal inputs. *)
type multi_instance = {
  graph : Graph.t;
  terminals : int list;
  inputs : Gf2.t array;
}

(** [eq_path params] — Algorithm 3/4 (Theorem 19, path case). *)
val eq_path : Eq_path.params -> (pair_instance, Strategy.t) protocol

(** [eq_tree params] — Algorithm 5 (Theorem 19). *)
val eq_tree : Eq_tree.params -> (multi_instance, Eq_tree.strategy) protocol

(** [gt params] — Algorithm 7 (Theorem 26). *)
val gt : Gt.params -> (pair_instance, Gt.prover) protocol

(** [relay params] — Algorithm 6 (Theorem 22). *)
val relay : Relay.params -> (pair_instance, Relay.prover) protocol

(** [dqcma params] — the classical-proof variant of Section 1.5. *)
val dqcma : Variants.params -> (pair_instance, Variants.prover) protocol

(** [dma_trivial ~n ~r] — the trivial classical baseline (full string
    at every node). *)
val dma_trivial : n:int -> r:int -> (pair_instance, Runtime_dma.prover) protocol

(** [rpls params] — the randomized proof-labeling scheme (FPSP19). *)
val rpls : Rpls.params -> (pair_instance, Rpls.prover) protocol

(** [ieq params] — the interactive equality family (arXiv:2210.01390):
    the first [turns > 1] protocols in the registry, plus their
    turn-reduced 1-turn compilation with the factor-q certificate
    blowup.  Realized on the network by {!Runtime_ieq} through
    {!Qdp_network.Runtime.run_turns}. *)
val ieq : Ieq.params -> (pair_instance, Ieq.prover) protocol

(** [set_eq params] — Set Equality via set fingerprints; instances are
    pairs of element arrays. *)
val set_eq :
  Set_eq.params -> (Gf2.t array * Gf2.t array, Strategy.t) protocol

(** Instances of ranking verification: the network, terminals, inputs,
    and the claim "terminal [rv_i]'s input is the [rv_j]-th largest". *)
type rv_instance = {
  rv_graph : Graph.t;
  rv_terminals : int list;
  rv_inputs : Gf2.t array;
  rv_i : int;
  rv_j : int;
}

(** [rv params] — Algorithm 8 (Theorem 29).  The comparison-protocol
    amplification is internal to [Rv.accept], so [repetitions = 1]
    here; the attack library enumerates every direction claim that
    passes the root's count check. *)
val rv : Rv.params -> (rv_instance, Rv.prover) protocol

(** [oneway_forall proto params] — the Section 6 compiler applied to a
    one-way protocol, deciding [forall_t f] on a multi-terminal
    instance. *)
val oneway_forall :
  Qdp_commcc.Oneway.t ->
  Oneway_compiler.params ->
  (multi_instance, Oneway_compiler.prover) protocol

(** {2 Conformance suite} *)

(** A protocol packaged with a concrete instance, existentially. *)
type packed = Packed : ('i, 'p) protocol * 'i -> packed

(** [evaluate_packed p] runs {!evaluate} under the existential. *)
val evaluate_packed : packed -> string * evaluation

(** {2 Backends and differential cross-validation}

    Every registered protocol has an analytic acceptance function (the
    transfer-DP simulator path); several also have a message-passing
    network realization under {!Qdp_network.Runtime}.  The harness
    below runs the same instance and prover strategy through both and
    checks agreement — the network path Monte-Carlo estimates what the
    analytic path computes exactly. *)

(** A network realization, staged: the partial application
    [network inst prover] is the per-instance {e prepare} step (it
    builds fingerprints, chain states and graphs once and draws no
    randomness); applying the result to a [Random.State.t] is one
    sampled run, [true] on accept, that only draws coins.  A prepared
    closure reused for many trials gives the same verdicts as a fresh
    preparation per trial, from the same state. *)
type ('i, 'p) network = 'i -> 'p -> Random.State.t -> bool

(** A fault-aware network realization, staged like {!network}: after
    [faulty inst prover] has prepared the instance, each application
    is one sampled run under a {!Fault_env.t}, returning the raw
    per-node verdicts and stats so the fault layer ([Qdp_faults]) can
    apply recovery semantics (timeout-as-reject, degraded verdicts of
    the survivors, retry). *)
type ('i, 'p) faulty_network =
  'i ->
  'p ->
  Random.State.t ->
  Fault_env.t ->
  Runtime.verdict array * Runtime.stats

(** How to obtain a single-repetition acceptance probability. *)
type ('i, 'p) backend = Analytic | Network of ('i, 'p) network

(** [backend_accept ?trials ~st backend p inst prover] is the
    single-repetition acceptance under the chosen backend: exact for
    [Analytic], a [trials]-sample frequency for [Network] (default
    2000; the instance is prepared once, and each run increments the
    [crossval.network_runs] counter). *)
val backend_accept :
  ?trials:int ->
  st:Random.State.t ->
  ('i, 'p) backend ->
  ('i, 'p) protocol ->
  'i ->
  'p ->
  float

(** One analytic-vs-sampled comparison. *)
type check = {
  check_strategy : string;  (** ["honest"] or an attack-library name *)
  analytic : float;
  sampled : float;
  trials : int;
  tolerance : float;
      (** [1e-6] when the analytic verdict is deterministic, otherwise
          the half-width of the Wilson score interval *)
  agree : bool;
}

(** [cross_validate ?trials ?z ~st ~network p inst] compares both
    backends on the honest prover (when defined) and every
    attack-library strategy.  Deterministic analytic verdicts must
    reproduce to 1e-6; probabilistic ones must place the analytic value
    inside the [z]-sigma (default 5) Wilson score interval of the
    sampled frequency ({!Qdp_network.Runtime.wilson}).  Increments
    [crossval.checks] and [crossval.disagreements].  Strategies are
    the shards of one [Qdp_dist.map_shards] grid, each sampling from an
    RNG state split off [st] in strategy order, so the check list is
    byte-identical at every [--jobs]/[--workers] value.  Each shard
    prepares its (instance, strategy) once and runs every trial on
    the prepared closure. *)
val cross_validate :
  ?trials:int ->
  ?z:float ->
  st:Random.State.t ->
  network:('i, 'p) network ->
  ('i, 'p) protocol ->
  'i ->
  check list

(** [pp_check] prints a one-line summary of a comparison. *)
val pp_check : Format.formatter -> check -> unit
