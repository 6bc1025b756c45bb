(** Column batches: [count] complex vectors of dimension [dim] stored
    together, row-major by vector index (entry [(g, c)] of the batch is
    entry [g] of column [c] and lives next to the other columns' entry
    [g]).

    A linear map applied to every column at once runs fused
    multiply-adds over contiguous rows of [count] floats, and the Gram
    kernel {!gram} streams the batch once per output tile with the
    result tile hot in cache, instead of re-reading two full vectors
    per output entry.  No library pipeline uses batches any more (the
    exact acceptance forms are built in proof space, see
    {!Qdp_core.Exact}); the kernels stay as priced primitives for the
    benchmark probes. *)

type t

(** [create dim count] is the all-zero batch of [count] columns of
    dimension [dim].
    @raise Invalid_argument on negative [dim] or non-positive
    [count]. *)
val create : int -> int -> t

(** [dim b] / [count b] are the column dimension and the number of
    columns. *)
val dim : t -> int

val count : t -> int

(** [get b g c] is entry [g] of column [c]. *)
val get : t -> int -> int -> Cx.t

(** [init dim count f] builds the batch with entry [(g, c)] equal to
    [f g c]. *)
val init : int -> int -> (int -> int -> Cx.t) -> t

(** [of_cols vs] packs an array of equal-dimension vectors as columns.
    @raise Invalid_argument on an empty array or ragged dimensions. *)
val of_cols : Vec.t array -> t

(** [col b c] extracts column [c] as a fresh vector. *)
val col : t -> int -> Vec.t

(** [equal ?eps a b] holds when shapes match and entries agree within
    [eps] (default [1e-9]). *)
val equal : ?eps:float -> t -> t -> bool

(** [apply_into m ~src ~dst] overwrites [dst] with [m] applied to every
    column of [src] — a GEMM over the batch that allocates nothing, so
    pipelines can ping-pong between two reusable buffers.  [src] and
    [dst] must be distinct batches.  Runs sequentially; each output
    row accumulates in a fixed order.
    @raise Invalid_argument on shape or column-count mismatch. *)
val apply_into : Mat.t -> src:t -> dst:t -> unit

(** [is_real b] holds when every imaginary part is exactly [0.] — the
    common case for fingerprint-derived pipelines, where {!gram} takes
    a 4x cheaper all-real path. *)
val is_real : t -> bool

(** [gram a] is the Hermitian Gram matrix [a^dagger a]: entry [(i, j)]
    equals [Vec.dot (col a i) (col a j)].  Only the upper triangle is
    accumulated (half the multiply-accumulates) and mirrored; the
    accumulation per entry runs over the vector index in ascending
    order, in 32-row output tiles that each stream the batch once.
    Runs sequentially. *)
val gram : t -> Mat.t

(** Direct access to the underlying storage (entry [(g, c)] at
    [g * count + c]).  Mutating these mutates the batch. *)
val raw_re : t -> Mat.farr

val raw_im : t -> Mat.farr
