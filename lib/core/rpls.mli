(** Randomized proof-labeling schemes — the dMA model of Fraigniaud,
    Patt-Shamir and Perry that the paper's introduction builds on.

    Randomization cannot reduce the {e proof} size below the Lemma 23
    bound (the splice attack in {!Lower_bounds} works against
    randomized verification too), but it slashes {e communication}:
    instead of exchanging full [n]-bit proofs, neighbours exchange
    [ell] shared-random parity bits and catch any mismatch with
    probability [1 - 2^{-ell}].  This module implements that protocol
    for EQ on a path, making the three-way comparison concrete:

    - dMA deterministic: [n] proof bits, [n] message bits;
    - dMA randomized (this module): [n] proof bits, [ell] message bits;
    - dQMA (Theorem 19): [O(r^2 log n)] proof qubits.  *)

open Qdp_codes

type params = {
  n : int;
  r : int;
  parity_checks : int;  (** [ell]: shared-random parity bits per edge *)
}

(** What the prover writes at the nodes. *)
type prover = Write of Gf2.t | Write_each of Gf2.t array

(** [accept_probability params x y prover] is the exact acceptance
    over the shared randomness: end nodes check their strings exactly;
    each edge with differing endpoint proofs survives each parity
    check with probability 1/2. *)
val accept_probability : params -> Gf2.t -> Gf2.t -> prover -> float

(** [prepare params x y prover] is the per-instance step: it lays out
    the proofs and settles the end nodes' input checks, drawing no
    randomness.  The returned closure samples one execution on the
    {!Qdp_network.Runtime} engine, drawing the shared parity seeds from
    its [Random.State.t], and may be reused for any number of trials
    with the same verdicts and stats as a fresh [prepare] per trial.
    Under [?faults], corruption flips one exchanged parity bit per
    corrupted message. *)
val prepare :
  params ->
  Gf2.t ->
  Gf2.t ->
  prover ->
  ?faults:Fault_env.t ->
  Random.State.t ->
  Qdp_network.Runtime.verdict array * Qdp_network.Runtime.stats

(** [costs params] — [n] proof bits per node, [parity_checks] message
    bits per edge per direction. *)
val costs : params -> Report.costs
