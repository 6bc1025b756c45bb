(** Interactive equality on a path — the dQIP turn-reduction family of
    Le Gall–Miyamoto–Nishimura (arXiv:2210.01390) instantiated with
    classical polynomial fingerprints.

    The left endpoint [v_0] of a path of [r] hops holds [x], the right
    endpoint [v_r] holds [y], and the verifier must decide [x = y].
    The fingerprint is polynomial evaluation over the prime field
    [F_q]: [P_x(z) = sum_i x_i z^i], so for [x <> y] the difference
    [P_x - P_y] is a nonzero polynomial of degree [< n] and agrees on
    at most [n - 1] of the [q] evaluation points.  Three variants trade
    turns against certificate size, mirroring the paper's
    turn-reduction compilation:

    - [turns = 3]: prover commits a parity digest at every node, the
      verifier reveals a public coin [alpha] (the challenge, dealt to
      [v_0]), the prover responds with the claimed [(alpha, P(alpha))]
      at every node; one exchange round hop-checks the chain and the
      endpoints anchor it against their own inputs.  O(log q) bits per
      node.
    - [turns = 2]: the same without the commit turn — coins first,
      then a single prover response.
    - [turns = 1]: the turn-reduced compilation.  The interaction is
      replaced by a bigger certificate: the prover writes the {e full}
      evaluation table [{P(alpha)}] at every node (q log q bits — a
      factor-q blowup), and each node probes its right neighbour's
      table at a fresh {e private} coin.  No verifier message ever
      reaches the prover, so this is a one-turn protocol in the
      message-turn sense of {!Qdp_network.Runtime.Turn.message_turns}.

    Completeness is perfect in every variant; per-repetition soundness
    is at most [(n - 1) / q <= 1/4] (see {!soundness_bound}), driven
    below [1/3] by {!params.repetitions}.

    The analytic {!accept} enumerates the verifier's coins through the
    same check predicates the network realization
    ({!Runtime_ieq}) evaluates on sampled coins, so differential
    cross-validation agrees by construction. *)

open Qdp_codes

type params = {
  n : int;  (** input length in bits *)
  r : int;  (** path length: nodes [v_0 .. v_r] *)
  turns : int;  (** 1, 2 or 3 — which variant (see above) *)
  repetitions : int;  (** parallel repetitions applied by [Dqma.evaluate] *)
}

(** @raise Invalid_argument on nonsensical parameters
    ([n <= 0], [r < 1], [turns] outside 1-3, [repetitions < 1]). *)
val validate : params -> unit

(** The field size: the smallest prime [>= max (4 n) 11], so a single
    repetition already has soundness error [<= 1/4]. *)
val field : params -> int

(** [poly_eval ~q x alpha] is [P_x(alpha) = sum_i x_i alpha^i mod q]. *)
val poly_eval : q:int -> Gf2.t -> int -> int

(** [parity x] is the XOR of all bits — the turn-1 commit digest of
    the 3-turn variant. *)
val parity : Gf2.t -> bool

(** [table ~q x] is the full evaluation table
    [[| P_x(0); ...; P_x(q-1) |]] — the 1-turn variant's per-node
    certificate. *)
val table : q:int -> Gf2.t -> int array

(** {2 Prover strategies}

    Every strategy answers each node consistently with {e some} input
    string; lying about the challenge [alpha] itself is dominated
    (it fails [v_0]'s deterministic coin anchor on every coin) and is
    not in the library. *)

type prover =
  | Answer_x  (** every node answers for [x] — the honest strategy *)
  | Answer_y  (** every node answers for [y] *)
  | Split of int
      (** nodes [<= j] answer for [x], the rest for [y] — the
          chain-splicing cheat *)

(** [source params x y prover i] is the string node [i]'s answers are
    derived from under [prover]. *)
val source : params -> Gf2.t -> Gf2.t -> prover -> int -> Gf2.t

(** A per-node response of the interactive (2/3-turn) variants: the
    claimed challenge and the claimed evaluation at it. *)
type answer = { a_alpha : int; a_eval : int }

(** [respond params ~q x y prover ~alpha i] is what the prover writes
    to node [i] in the response turn when the revealed coin is
    [alpha]. *)
val respond : params -> q:int -> Gf2.t -> Gf2.t -> prover -> alpha:int -> int -> answer

(** {2 Check predicates}

    Shared verbatim between the analytic acceptance below and the
    network realization in {!Runtime_ieq}. *)

(** [v_0]'s commit anchor: the claimed digest equals [parity x]. *)
val commit_ok_left : Gf2.t -> bool -> bool

(** [v_r]'s commit anchor against [y]. *)
val commit_ok_right : Gf2.t -> bool -> bool

(** [v_0]'s response anchor: the claimed challenge equals the coin it
    was actually dealt, and the claimed evaluation is [P_x] at it. *)
val answer_ok_left : q:int -> Gf2.t -> coin:int -> answer -> bool

(** [v_r]'s response anchor: the claimed evaluation is [P_y] at the
    claimed challenge (the challenge itself is hop-checked back to
    [v_0]'s anchor). *)
val answer_ok_right : q:int -> Gf2.t -> answer -> bool

(** [v_0]'s table anchor (1-turn variant): the certificate is
    pointwise equal to [x]'s evaluation table.  The partial
    application [table_ok_left ~q x] builds that table once. *)
val table_ok_left : q:int -> Gf2.t -> int array -> bool

(** One neighbour probe (1-turn variant): the left neighbour's table
    value at its private coin matches this node's table. *)
val probe_ok : int array -> beta:int -> value:int -> bool

(** [v_r]'s table anchor at its private coin [beta]:
    [t.(beta) = P_y(beta)]. *)
val table_ok_right : q:int -> Gf2.t -> int array -> coin:int -> bool

(** {2 Analytic acceptance} *)

(** [accept params (x, y) prover] is the exact single-repetition
    acceptance probability: the 2/3-turn variants average the decision
    predicate over all [q] public challenges, the 1-turn variant
    multiplies the per-edge and endpoint probe-agreement fractions
    (each node's private coin is used in exactly one check, so the
    checks are independent). *)
val accept : params -> Gf2.t * Gf2.t -> prover -> float

(** The cheating-prover library: [Answer_x], [Answer_y] and the
    mid-path [Split]. *)
val attacks : params -> (string * prover) list

(** Per-repetition soundness upper bound [(n - 1) / q]. *)
val soundness_bound : params -> float

(** [adversarial_pair params base] is the root-richest no-instance
    derived from [base]: [y = x xor e_0 xor e_d] with [d <= n - 1]
    maximizing [gcd (d, q - 1)], so [P_x - P_y = 1 - z^d] vanishes on
    exactly the [gcd (d, q - 1)] d-th roots of unity of [F_q] and
    every consistent attack accepts with probability [gcd / q] — the
    family's worst case over two-bit perturbations.  [x] and [y] have
    equal parity, so the 3-turn commit does not short-circuit the
    challenge. *)
val adversarial_pair : params -> Gf2.t -> Gf2.t * Gf2.t

(** [bits q] is the width of a field element, [ceil(log2 q)]. *)
val bits : int -> int

(** Certificate/message accounting in classical bits: per-node proof
    is [1 + 2 log q] (3-turn), [2 log q] (2-turn) or [q log q]
    (1-turn) — the turn-reduction blowup — and verification traffic is
    one exchange round. *)
val costs : params -> Report.costs
