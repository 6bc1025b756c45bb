(** The trivial classical dMA protocol for EQ, executed on the
    {!Qdp_network.Runtime} engine — the baseline the paper's
    introduction compares against: the prover writes an [n]-bit string
    at every node, neighbours exchange and compare strings, and the
    end nodes check against their own inputs.  Deterministic,
    complete, sound — and [Theta(n)] bits per node, which Corollary 25
    shows is unavoidable classically while Theorem 19 beats it
    exponentially with quantum proofs. *)

open Qdp_codes
open Qdp_network

(** What the prover writes at each node ([r + 1] strings). *)
type prover = Honest of Gf2.t | Assignment of Gf2.t array

(** [prepare ~r x y prover] is the per-instance step: it lays out the
    proofs and their wire strings.  The verifier is deterministic, so
    the returned closure never reads its [Random.State.t]; it takes
    one for uniformity with the sampled backends.  Under [?faults],
    in-flight corruption flips one proof bit per corrupted message
    (the classical bit-flip link model).
    @raise Invalid_argument on an [Assignment] of the wrong length. *)
val prepare :
  r:int ->
  Gf2.t ->
  Gf2.t ->
  prover ->
  ?faults:Fault_env.t ->
  Random.State.t ->
  Runtime.verdict array * Runtime.stats

(** [run params_r x y prover] executes the 1-round protocol on the
    path of length [r] and returns the verdict (deterministic) with
    traffic stats. *)
val run : r:int -> Gf2.t -> Gf2.t -> prover -> bool * Runtime.stats

(** [run_faulty st env ~r x y prover] is {!run} under the fault
    environment.  Returns raw per-node verdicts for the fault layer's
    recovery semantics. *)
val run_faulty :
  Random.State.t ->
  Fault_env.t ->
  r:int ->
  Gf2.t ->
  Gf2.t ->
  prover ->
  Runtime.verdict array * Runtime.stats

(** [bits_per_node ~n] is the proof cost: [n]. *)
val bits_per_node : n:int -> int
