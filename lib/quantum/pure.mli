(** Exact state-vector simulator over named quantum registers.

    This is the reference simulator of the repository: a single global
    pure state over all proof registers of a protocol run, on which
    arbitrary (including entangled) proofs, controlled swaps,
    symmetric-subspace projections and measurements are exact.  It is
    limited to ~20 qubits total, which covers paths of length up to ~5
    with toy fingerprints — enough to validate the scalable
    product-proof simulator and to exercise dQMA soundness against
    entangled proofs.

    Registers are named; qubit 0 of the first register is the most
    significant bit of the basis-state index. *)

open Qdp_linalg

(** A register layout: an ordered list of named registers with widths
    in qubits. *)
type layout

type t

(** [layout regs] builds a layout.
    @raise Invalid_argument on duplicate names or non-positive
    widths. *)
val layout : (string * int) list -> layout

(** [layout_registers l] lists the (name, width) pairs in order. *)
val layout_registers : layout -> (string * int) list

(** [total_qubits l] is the sum of widths. *)
val total_qubits : layout -> int

(** [zero l] is [|0...0>]. *)
val zero : layout -> t

(** [product l states] initializes each named register with the given
    pure state (dimension [2^width]); unnamed registers start in
    [|0...0>].
    @raise Invalid_argument on dimension mismatch. *)
val product : layout -> (string * Vec.t) list -> t

(** [of_global l v] wraps a full state vector of dimension
    [2^(total_qubits l)] — used to install entangled proofs. *)
val of_global : layout -> Vec.t -> t

(** [get_layout s] / [dim s] / [global_vector s]. *)
val get_layout : t -> layout

val dim : t -> int
val global_vector : t -> Vec.t

(** [register_width s name] is the width of the named register.
    @raise Invalid_argument naming the unknown register and the
    layout's registers if absent — as does every operation below that
    takes register names. *)
val register_width : t -> string -> int

(** [norm2 s] is the squared norm of the global state (1 for
    normalized states, less after an unnormalized projection). *)
val norm2 : t -> float

(** [normalize s] rescales to unit norm.
    @raise Invalid_argument on (numerically) zero states. *)
val normalize : t -> t

(** [inner a b] is the global inner product [<a|b>]. *)
val inner : t -> t -> Cx.t

(** [apply_on s names m] applies the operator [m] (of dimension
    [2^k x 2^k] where [k] is the summed width of [names]) to the
    concatenation of the named registers, identity elsewhere.  [m] need
    not be unitary (projectors are applied the same way). *)
val apply_on : t -> string list -> Mat.t -> t

(** [permute_registers s names pi] applies the permutation unitary
    [U_pi] to the listed equal-width registers:
    slot [l] of the result holds the previous contents of slot
    [pi^{-1} l]. *)
val permute_registers : t -> string array -> int array -> t

(** [swap_registers s a b] exchanges the contents of two equal-width
    registers. *)
val swap_registers : t -> string -> string -> t

(** [controlled_swap s ~control a b] applies a swap of [a] and [b]
    controlled on the 1-qubit register [control]. *)
val controlled_swap : t -> control:string -> string -> string -> t

(** [project_sym s names] applies the symmetric-subspace projector
    [(1/k!) sum_pi U_pi] over the listed equal-width registers,
    returning the (generally unnormalized) projected state.  Its
    squared norm is the permutation-test acceptance probability. *)
val project_sym : t -> string list -> t

(** [prob_of_outcome s name v] is the probability that measuring
    register [name] in the computational basis yields [v]. *)
val prob_of_outcome : t -> string -> int -> float

(** [measure st s name] samples a computational-basis outcome of the
    named register and returns it with the collapsed, renormalized
    state. *)
val measure : Random.State.t -> t -> string -> int * t

(** [reduced_density s names] is the reduced density matrix of the
    listed registers (partial trace over everything else), of dimension
    [2^k x 2^k]. *)
val reduced_density : t -> string list -> Mat.t
