(** Message-passing execution of the EQ^t tree protocol (Algorithm 5)
    on the {!Qdp_network.Runtime} engine.

    The spanning tree of Section 3.3 is materialized as a network of
    its own (one runtime node per tree node, edges to parents);
    fingerprint registers flow leaf-to-root as messages, every
    non-terminal node symmetrizes its prover pair locally and samples
    its permutation test on arrival.  Sampled acceptance frequencies
    converge to {!Eq_tree}'s closed forms (checked in the tests). *)

open Qdp_codes
open Qdp_network

(** [prepare params g ~terminals ~inputs strategy] is the per-instance
    step: it encodes the input fingerprints, builds the spanning tree
    and its materialized network, counts every node's children and
    builds the internal nodes' states, drawing no randomness.  The
    returned closure is one repetition as real message passing — it
    only draws the verifier's coins from its [Random.State.t] — and
    may be reused for any number of trials; a closure prepared once
    gives the same verdicts and stats as a fresh [prepare] per trial.
    Under [?faults], register noise corrupts the leaf-to-root
    fingerprint messages, links fail and nodes crash per the plan. *)
val prepare :
  Eq_tree.params ->
  Graph.t ->
  terminals:int list ->
  inputs:Gf2.t array ->
  Eq_tree.strategy ->
  ?faults:Fault_env.t ->
  Random.State.t ->
  Runtime.verdict array * Runtime.stats

(** [run_once st params g ~terminals ~inputs strategy] executes one
    {!prepare}d repetition and returns the global verdict plus traffic
    stats. *)
val run_once :
  Random.State.t ->
  Eq_tree.params ->
  Graph.t ->
  terminals:int list ->
  inputs:Gf2.t array ->
  Eq_tree.strategy ->
  bool * Runtime.stats

(** [run_faulty st env params g ~terminals ~inputs strategy] is
    {!run_once} under the fault environment, returning raw per-node
    verdicts for the fault layer's recovery semantics. *)
val run_faulty :
  Random.State.t ->
  Fault_env.t ->
  Eq_tree.params ->
  Graph.t ->
  terminals:int list ->
  inputs:Gf2.t array ->
  Eq_tree.strategy ->
  Runtime.verdict array * Runtime.stats

(** [estimate_acceptance st ~trials params g ~terminals ~inputs
    strategy] is the empirical acceptance frequency of one
    {!prepare}d instance. *)
val estimate_acceptance :
  Random.State.t ->
  trials:int ->
  Eq_tree.params ->
  Graph.t ->
  terminals:int list ->
  inputs:Gf2.t array ->
  Eq_tree.strategy ->
  float
