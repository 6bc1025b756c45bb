(** Exact state-vector execution of the EQ path protocol (Algorithm 3)
    on toy instances — the ground truth the scalable product-proof
    engine is validated against, and the only engine that can evaluate
    {e entangled} proofs.

    All local tests of Algorithm 3 act on pairwise-disjoint register
    sets, so "every node accepts" is one global projector [P] applied
    to the coin-purified state: the acceptance probability of a proof
    [|xi>] is the quadratic form [<xi| V^dagger V |xi>] for a fixed
    linear map [V].  Diagonalizing [V^dagger V] therefore yields the
    {e exactly optimal} entangled attack — the number that separates
    the dQMA soundness (Definition 6) from the dQMA^sep,sep soundness
    (Definition 8) on the instance. *)

open Qdp_linalg

(** Protocol shape: toy fingerprints of [qubits] qubits at the path
    ends, [r - 1] intermediate nodes with a 2-register proof each. *)
type config = { r : int; qubits : int }

(** [proof_qubits cfg] is [2 * qubits * (r - 1)] — the dimension log of
    the proof space. *)
val proof_qubits : config -> int

(** [toy_state ~qubits k] is a deterministic unit state for input [k]:
    angle-encoded so distinct small [k] have pairwise overlaps bounded
    away from 0 and 1. *)
val toy_state : qubits:int -> int -> Vec.t

(** [final_state cfg ~x_state ~y_state ~proof] is the (unnormalized)
    global state after the full coin-purified run: circuit, all
    symmetric projections, and [v_r]'s POVM element.  Its squared norm
    is {!accept_prob}. *)
val final_state :
  config ->
  x_state:Vec.t ->
  y_state:Vec.t ->
  proof:Vec.t ->
  Qdp_quantum.Pure.t

(** [accept_prob cfg ~x_state ~y_state ~proof] executes Algorithm 3
    exactly: [v_0] prepares [x_state]; the given (arbitrary, possibly
    entangled) [proof] of dimension [2^(proof_qubits cfg)] fills the
    intermediate registers; coins are purified; [v_r] measures the
    projector onto [y_state]. *)
val accept_prob : config -> x_state:Vec.t -> y_state:Vec.t -> proof:Vec.t -> float

(** [attack_gram cfg ~x_state ~y_state] is the acceptance form
    [V^dagger V] of the protocol on the proof space
    ([2^(proof_qubits cfg)] square): entry [(p, q)] is the inner
    product of the final states for basis proofs [|p>] and [|q>], so
    the quadratic form [<xi| G |xi>] is the acceptance probability of
    proof [|xi>].  It is built in proof space, with no circuit run:
    after the controlled swaps the coins are never touched, so each
    node's coin marginalises to a swap twirl, and every projection acts
    on its own register pair.  Hence
    [G[p, q] = 2^-(r-1) sum_s K[sigma_s p, sigma_s q]] with
    [K = A (x) Pi_sym^(r-2) (x) |y><y|] on the proof registers grouped
    [(R10)(R11 R20)...(R(r-1)1)], [A = (I + |x><x|)/2 =
    <x|_L Pi_sym(L, R10) |x>_L], and [sigma_s] swapping the contents of
    [Rj0] and [Rj1] for every bit [j] set in [s].
    @raise Invalid_argument when [r < 2]. *)
val attack_gram : config -> x_state:Vec.t -> y_state:Vec.t -> Mat.t

(** [product_proof cfg pairs] assembles the product proof
    [(x) (a_j (x) b_j)] — the dQMA^sep,sep proof class. *)
val product_proof : config -> (Vec.t * Vec.t) array -> Vec.t

(** [honest_proof cfg state] loads [state] into every register. *)
val honest_proof : config -> Vec.t -> Vec.t

(** [optimal_entangled_attack cfg ~x_state ~y_state] computes the
    exact maximum acceptance over {e all} proofs — including entangled
    ones — as the top eigenvalue of the acceptance form, together with
    an optimal proof vector. *)
val optimal_entangled_attack :
  config -> x_state:Vec.t -> y_state:Vec.t -> float * Vec.t

(** [best_product_attack cfg ~x_state ~y_state] evaluates the geodesic
    interpolation product proof (the strongest known separable attack)
    for comparison with the entangled optimum. *)
val best_product_attack : config -> x_state:Vec.t -> y_state:Vec.t -> float

(** {2 Exact tree execution (Algorithm 5 on a star)}

    The smallest nontrivial tree: a root terminal, one internal node
    holding the two-register proof, and [t - 1] terminal leaves.  The
    internal node permutation-tests its kept register against all the
    leaf fingerprints; the root SWAP-tests its own state against the
    forwarded register. *)

type star_config = { t : int; star_qubits : int }

(** [star_final_state cfg ~root_state ~leaf_states ~proof] is the
    (unnormalized) global state after the full star run; its squared
    norm is {!star_accept_prob}.
    @raise Invalid_argument unless [Array.length leaf_states = t - 1]. *)
val star_final_state :
  star_config ->
  root_state:Vec.t ->
  leaf_states:Vec.t array ->
  proof:Vec.t ->
  Qdp_quantum.Pure.t

(** [star_accept_prob cfg ~root_state ~leaf_states ~proof] executes
    the protocol exactly for an arbitrary (possibly entangled)
    two-register [proof] of dimension [2^(2 star_qubits)].
    @raise Invalid_argument unless [Array.length leaf_states = t - 1]. *)
val star_accept_prob :
  star_config -> root_state:Vec.t -> leaf_states:Vec.t array -> proof:Vec.t -> float

(** [star_attack_gram cfg ~root_state ~leaf_states] is the acceptance
    form on the two-register proof space, built the same way as
    {!attack_gram} with one coin: [G = (K + SWAP K SWAP) / 2] with
    [K = M (x) (I + |root><root|)/2] on [(R0, R1)], where
    [M_ab = <Pi (a (x) leaves), Pi (b (x) leaves)>] for the permutation
    test [Pi] on R0 and the leaf registers.
    @raise Invalid_argument unless [Array.length leaf_states = t - 1]. *)
val star_attack_gram :
  star_config -> root_state:Vec.t -> leaf_states:Vec.t array -> Mat.t

(** [optimal_entangled_star_attack cfg ~root_state ~leaf_states] is
    the exact optimum over all proofs (top eigenvalue of the
    acceptance form) with an optimal proof vector. *)
val optimal_entangled_star_attack :
  star_config -> root_state:Vec.t -> leaf_states:Vec.t array -> float * Vec.t

(** [optimal_split_attack st cfg ~x_state ~y_state ~cut_qubits ~sweeps]
    is the best acceptance over proofs of the form
    [|xi_1> (x) |xi_2>] where the first factor spans the first
    [cut_qubits] proof qubits — the proof class of a two-prover
    dQMA(2) protocol whose provers are unentangled across the cut
    (Section 1.5, open problem 1).  Computed by coordinate ascent on
    the acceptance quadratic form (each factor update is an exact
    eigenproblem), so the value is a certified attack, sandwiched
    between the best node-product and the global optimum. *)
val optimal_split_attack :
  Random.State.t ->
  config ->
  x_state:Vec.t ->
  y_state:Vec.t ->
  cut_qubits:int ->
  sweeps:int ->
  float
