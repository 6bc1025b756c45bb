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
    each run of a {!prepare}d closure is one repetition). *)
type params = Eq_path.params = {
  n : int;
  r : int;
  seed : int;
  repetitions : int;
}

(** [prepare params x y strategy] is the per-instance step: it encodes
    the fingerprints of [x] and [y] and the prover's register at every
    node (geodesic states included), drawing no randomness.  It also
    computes the test every node runs in a noise-free trial — a middle
    node's SWAP test and [v_r]'s fingerprint test, each on [v_(j-1)]'s
    register.  A trial uses that value when the arriving register is
    physically the prepared one, and otherwise (noise hands over a
    fresh vector) runs the test itself; the coins drawn are the same
    either way.  The returned closure is one repetition — it only draws
    the verifier's coins from its [Random.State.t] — and may be reused
    for any number of trials; a closure prepared once gives the same
    verdicts and stats as a fresh [prepare] per trial.  Under
    [?faults], forwarded fingerprint registers pass through the
    environment's register noise when the plan corrupts them, links
    drop/duplicate per the plan and crashed nodes freeze. *)
val prepare :
  params ->
  Gf2.t ->
  Gf2.t ->
  Strategy.t ->
  ?faults:Fault_env.t ->
  Random.State.t ->
  Runtime.verdict array * Runtime.stats
