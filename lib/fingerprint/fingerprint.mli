(** Quantum fingerprints (Buhrman-Cleve-Watrous-de Wolf) and the
    one-way EQ protocol [pi] of Section 2.2.1.

    The fingerprint of [x] under a code [E] of block length [m] is
    [|h_x> = (1/sqrt m) sum_i |i>|E(x)_i>], a state of [ceil(log m) + 1]
    qubits.  Distinct inputs have overlap [<h_x|h_y> = 1 - d_H(Ex, Ey)/m
    <= 1 - delta], so the one-way protocol — Alice sends [|h_x>], Bob
    measures [{|h_y><h_y|, I - |h_y><h_y|}] — accepts [x = y] with
    probability 1 and [x <> y] with probability at most [(1 - delta)^2].

    States live in dimension [2 m] (index (x) bit), which need not be a
    power of two; the product-proof simulator works with arbitrary
    dimensions, and {!qubits} reports the qubit cost charged to the
    protocol. *)

open Qdp_linalg
open Qdp_codes

type t

(** [make code] builds a fingerprint family from a linear code. *)
val make : Linear_code.t -> t

(** [standard ~seed ~n] is the default family for [n]-bit inputs: a
    seeded random systematic code of rate 1/8 ([m = 8 n]), whose
    relative distance concentrates near 1/2 so the single-measurement
    soundness error [(1 - delta)^2] is ~1/4.

    Construction is memoized per [(seed, n)] — repeated instance
    builds in attack searches hit a process-wide cache (observable via
    the [fingerprint.cache.hits]/[fingerprint.cache.misses]
    counters).  The cache is mutex-guarded and safe to hit from
    concurrent domains; at capacity it evicts one binding at a time,
    so hot keys survive sweeps over many cold ones. *)
val standard : seed:int -> n:int -> t

(** [code fp] is the underlying code. *)
val code : t -> Linear_code.t

(** [input_bits fp] is [n]; [dim fp] is the state dimension [2 m]. *)
val input_bits : t -> int

val dim : t -> int

(** [qubits fp] is the proof-size accounting: [ceil (log2 (2 m))]. *)
val qubits : t -> int

(** [qubits_of_n n] is [qubits (standard ~seed ~n)] computed without
    materializing the code — used by cost-accounting sweeps over very
    large [n]. *)
val qubits_of_n : int -> int

(** [state fp x] is [|h_x>].
    @raise Invalid_argument if [Gf2.length x <> input_bits fp]. *)
val state : t -> Gf2.t -> Vec.t

(** [overlap fp x y] is [<h_x|h_y> = 1 - d_H(Ex, Ey)/m], computed
    directly from the codewords. *)
val overlap : t -> Gf2.t -> Gf2.t -> float

(** [accept_prob fp y psi] is the probability that Bob's measurement
    for input [y] accepts the (unit) state [psi]: [|<h_y|psi>|^2].
    The partial application [accept_prob fp y] encodes [|h_y>] once,
    so a measurement reused across trials pays for it once. *)
val accept_prob : t -> Gf2.t -> Vec.t -> float

(** [bot_state fp] is the distinguished [|bot>] state the GT protocol
    sends when the claimed index is 0 (empty prefixes).  Only equality
    of two [|bot>] states is ever tested, so any fixed unit vector
    works; we use basis state 1. *)
val bot_state : t -> Vec.t
