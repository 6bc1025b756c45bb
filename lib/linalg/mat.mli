(** Dense complex matrices, row-major, on unboxed [Bigarray] storage
    (float64, C layout).

    These back the density-operator side of the quantum simulator:
    partial traces, operator algebra, projectors, and the distance
    measures in {!Qdp_quantum.Distance} are all computed on values of
    this type. *)

(** The storage type shared by {!Mat} and {!Batch}: one contiguous
    unboxed float64 buffer per complex component. *)
type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

(** [create r c] is the [r x c] zero matrix. *)
val create : int -> int -> t

(** [rows m] / [cols m] are the dimensions. *)
val rows : t -> int

val cols : t -> int

(** [identity n] is the [n x n] identity. *)
val identity : int -> t

(** [init r c f] builds the matrix with entry [(i, j)] equal to
    [f i j]. *)
val init : int -> int -> (int -> int -> Cx.t) -> t

(** [get m i j] / [set m i j z] access entry [(i, j)]. *)
val get : t -> int -> int -> Cx.t

val set : t -> int -> int -> Cx.t -> unit

(** [copy m] is a fresh matrix equal to [m]. *)
val copy : t -> t

(** [add], [sub] are entrywise; [scale z m] multiplies by a scalar. *)
val add : t -> t -> t

val sub : t -> t -> t
val scale : Cx.t -> t -> t

(** Every dense kernel ([mul], [tensor], [Batch.apply_into],
    [Batch.gram]) runs sequentially on the calling domain: the
    parallel work in qdp is in its grids ([Qdp_dist]), not inside one
    matrix product. *)

(** Overflow-safe MAC estimates for the [macs] attribute of the
    dense-kernel sections ({!Qdp_obs.section}):
    dense-kernel MAC counts are products of up to four dimensions,
    which can wrap native ints long before they overflow floats
    ([macs4] of [2{^16}] on every axis is exactly [2{^64}]). *)
val macs2 : int -> int -> float

val macs3 : int -> int -> int -> float
val macs4 : int -> int -> int -> int -> float

(** [mul a b] is the matrix product. *)
val mul : t -> t -> t

(** [apply m v] is the matrix-vector product [m v]. *)
val apply : t -> Vec.t -> Vec.t

(** [apply_into m v ~dst] overwrites [dst] with [m v] without
    allocating — the hot-loop form of {!apply} ([v] and [dst] must be
    distinct vectors).
    @raise Invalid_argument on dimension mismatch. *)
val apply_into : t -> Vec.t -> dst:Vec.t -> unit

(** [adjoint m] is the conjugate transpose. *)
val adjoint : t -> t

(** [transpose m] is the plain transpose. *)
val transpose : t -> t

(** [conj m] is the entrywise conjugate. *)
val conj : t -> t

(** [trace m] is the sum of diagonal entries (square matrices). *)
val trace : t -> Cx.t

(** [tensor a b] is the Kronecker product. *)
val tensor : t -> t -> t

(** [tensor_list ms] folds {!tensor} over a non-empty list. *)
val tensor_list : t list -> t

(** [outer a b] is [|a><b|]: entry [(i, j)] equals [a_i * conj b_j]. *)
val outer : Vec.t -> Vec.t -> t

(** [of_vec v] is the rank-one projector [|v><v|] for a unit vector, or
    more generally [|v><v|] without normalization. *)
val of_vec : Vec.t -> t

(** [is_hermitian ?eps m] checks [m = m^dagger] entrywise. *)
val is_hermitian : ?eps:float -> t -> bool

(** [is_unitary ?eps m] checks [m m^dagger = I] entrywise. *)
val is_unitary : ?eps:float -> t -> bool

(** [equal ?eps a b] is entrywise comparison within [eps]. *)
val equal : ?eps:float -> t -> t -> bool

(** [frobenius_norm m] is [sqrt (sum |m_ij|^2)]. *)
val frobenius_norm : t -> float

(** [pp] prints rows on separate lines. *)
val pp : Format.formatter -> t -> unit

(** [swap_gate d] is the unitary on [C^d (x) C^d] exchanging the two
    factors. *)
val swap_gate : int -> t

(** Partial quadratic forms on a bilinear form [g] over
    [C^big (x) C^sub] (rows and columns indexed [i * sub + j]).  Both
    contract one tensor factor against a fixed vector in two
    GEMM-shaped unboxed passes — O(rows^2 * factor) instead of the
    naive O(rows^2 * factor^2) — and power the alternating eigenproblem
    ascents of the split-proof and product-pair attack optimizers. *)

(** [quad_minor g v] is the [big x big] matrix with entry [(i, i')]
    equal to [sum_{j j'} conj v_j * g[(i sub + j), (i' sub + j')] *
    v_j'] where [sub = Vec.dim v].
    @raise Invalid_argument unless [g] is square with [Vec.dim v]
    dividing its size. *)
val quad_minor : t -> Vec.t -> t

(** [quad_major g u] is the [sub x sub] matrix with entry [(j, j')]
    equal to [sum_{i i'} conj u_i * g[(i sub + j), (i' sub + j')] *
    u_i'] where [big = Vec.dim u] and [sub = rows g / big].
    @raise Invalid_argument unless [g] is square with [Vec.dim u]
    dividing its size. *)
val quad_major : t -> Vec.t -> t

(** Direct access to the underlying row-major storage (entry [(i, j)]
    at [i * cols + j]); used by the batched simulator kernels.
    Mutating these mutates the matrix. *)
val raw_re : t -> farr

val raw_im : t -> farr
