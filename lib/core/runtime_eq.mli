(** Message-passing execution of the EQ path protocol on the
    {!Qdp_network.Runtime} engine.

    Where {!Eq_path} computes acceptance probabilities in closed form,
    this module actually {e runs} the protocol: every node is a
    handler, fingerprint registers travel as messages along the path
    graph, symmetrization coins are flipped locally, SWAP tests are
    sampled, and the per-node verdicts come back through the runtime —
    together with its traffic accounting.  Sampled acceptance
    frequencies converge to the {!Eq_path} closed forms (checked in the
    test suite). *)

open Qdp_codes
open Qdp_network

(** Shares {!Eq_path.params} so closed-form and message-passing runs
    are configured by the same value ([repetitions] is ignored here:
    each [run_once] is one repetition). *)
type params = Eq_path.params = {
  n : int;
  r : int;
  seed : int;
  repetitions : int;
}

(** [prepare params x y strategy] is the per-instance step: it encodes
    the fingerprints of [x] and [y] and the prover's register at every
    node (geodesic states included), drawing no randomness.  The
    returned closure is one repetition — it only draws the verifier's
    coins from its [Random.State.t] — and may be reused for any number
    of trials; a closure prepared once gives the same verdicts and
    stats as a fresh [prepare] per trial.  Under [?faults], forwarded
    fingerprint registers pass through the environment's register
    noise when the plan corrupts them, links drop/duplicate per the
    plan and crashed nodes freeze. *)
val prepare :
  params ->
  Gf2.t ->
  Gf2.t ->
  Strategy.t ->
  ?faults:Fault_env.t ->
  Random.State.t ->
  Runtime.verdict array * Runtime.stats

(** [run_once st params x y strategy] executes one repetition and
    returns whether every node accepted, plus the runtime's traffic
    stats. *)
val run_once :
  Random.State.t ->
  params ->
  Gf2.t ->
  Gf2.t ->
  Strategy.t ->
  bool * Runtime.stats

(** [run_faulty st env params x y strategy] is one {!prepare}d
    repetition under the fault environment.  Returns the raw per-node
    verdicts so the fault layer can apply its recovery semantics
    (degraded verdicts need to know who was down). *)
val run_faulty :
  Random.State.t ->
  Fault_env.t ->
  params ->
  Gf2.t ->
  Gf2.t ->
  Strategy.t ->
  Runtime.verdict array * Runtime.stats

(** [estimate_acceptance st ~trials params x y strategy] is the
    empirical acceptance frequency of one {!prepare}d instance. *)
val estimate_acceptance :
  Random.State.t ->
  trials:int ->
  params ->
  Gf2.t ->
  Gf2.t ->
  Strategy.t ->
  float
