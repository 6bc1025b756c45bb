(** Message-passing execution of the GT protocol (Algorithm 7) on the
    {!Qdp_network.Runtime} engine.

    Every node measures its classical index register on arrival,
    forwards the measured index along with the quantum prefix
    fingerprint, and rejects deterministically on an index mismatch —
    the behaviour Algorithm 7 prescribes and the closed-form engine
    ({!Gt}) assumes when it restricts cheating provers to a committed
    index.  This module also demonstrates the other case: a prover
    sending {e different} indices to different nodes is caught with
    certainty by the neighbour comparisons. *)

open Qdp_codes
open Qdp_network

(** What the prover distributes: a per-node claimed index plus the
    strategy for the prefix-fingerprint registers. *)
type prover = {
  node_index : int -> int;  (** claimed index at node [j], [0 <= j <= r] *)
  chain : Strategy.t;
}

(** [honest x y] commits to the witness index everywhere.
    @raise Invalid_argument when [GT (x, y) = 0]. *)
val honest : Gf2.t -> Gf2.t -> prover

(** [of_prover p] lifts a closed-form {!Gt.prover} (one committed
    index) to the runtime shape — the bridge the differential harness
    runs both backends through. *)
val of_prover : Gt.prover -> prover

(** [prepare params x y prover] is the per-instance step: it resolves
    every node's claimed index and builds its prefix fingerprints and
    chain state, drawing no randomness.
    The returned closure is one repetition — it only draws the
    verifier's coins from its [Random.State.t] — and may be reused for
    any number of trials; a closure prepared once gives the same
    verdicts and stats as a fresh [prepare] per trial.  Under
    [?faults], register noise corrupts the forwarded prefix
    fingerprints (the classical index header is left to the
    deterministic neighbour comparison).  Nodes check their claimed
    index against the one arriving from the left and reject on
    mismatch before any quantum test; a node whose claimed index lies
    outside [\[0, n)] gets no register and rejects. *)
val prepare :
  Gt.params ->
  Gf2.t ->
  Gf2.t ->
  prover ->
  ?faults:Fault_env.t ->
  Random.State.t ->
  Runtime.verdict array * Runtime.stats
