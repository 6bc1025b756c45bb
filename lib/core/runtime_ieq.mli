(** Turn-based network realization of the {!Ieq} family — the first
    protocols to exercise {!Qdp_network.Runtime.run_turns} beyond the
    one-shot schedule.

    The schedules (1-based entries, as fault plans and
    {!Qdp_network.Runtime.Protocol_error} count them):

    - [turns = 3]:
      [Prover] (commit digests) ·
      [Verifier {rounds = 0; coin_range = q}] (deal the public
      challenge; no communication) ·
      [Prover] (responses) ·
      [Verifier {rounds = 2; coin_range = 0}] (one exchange:
      round 1 announces, round 2 checks — timeout-as-reject).
    - [turns = 2]: the same without the leading commit turn.
    - [turns = 1]:
      [Prover] (full evaluation tables) ·
      [Verifier {rounds = 2; coin_range = q}] (fresh {e private}
      coins; each node probes its right neighbour's table at its own
      coin).

    Endpoint anchors run in [tp_finish] against the recorded
    {!Qdp_network.Runtime.Transcript.t} — the decision predicate
    consumes the coins the engine actually dealt, which is what makes
    the sampled path agree exactly with {!Ieq.accept}'s enumeration.

    Fault injection follows the classical-payload convention
    ({!Rpls}): corruption perturbs one field element (or flips the
    commit bit), and silence from the prover or a neighbour is as
    damning as a mismatch. *)

open Qdp_codes
open Qdp_network

(** Wire payloads: prover writes ([Commit]/[Answer]/[Table]) and
    node-to-node verification traffic ([Check]/[Probe]). *)
type msg =
  | Commit of bool
  | Answer of Ieq.answer
  | Table of int array
  | Check of { b : bool option; ans : Ieq.answer option }
  | Probe of { beta : int; value : int }

(** [schedule params ~q] is the turn schedule above;
    [Qdp_network.Runtime.Turn.message_turns] of it equals
    [params.turns]. *)
val schedule : Ieq.params -> q:int -> Runtime.Turn.t list

(** [prepare params x y prover] is the per-instance step: it validates
    [params], finds the field, builds the schedule and node program
    and — for the 1-turn variant — every node's evaluation-table
    certificate and [v_0]'s reference table, drawing no randomness.
    The returned closure is one interaction on [Graph.path params.r];
    its [Random.State.t] supplies the verifier's coins, and it may be
    reused for any number of trials with the same verdicts and stats
    as a fresh [prepare] per trial.  Under [?faults], corruption is
    instantiated at this payload type.
    @raise Invalid_argument on invalid [params] ({!Ieq.validate}). *)
val prepare :
  Ieq.params ->
  Gf2.t ->
  Gf2.t ->
  Ieq.prover ->
  ?faults:Fault_env.t ->
  Random.State.t ->
  Runtime.verdict array * Runtime.stats
