(** Column batches: [count] complex vectors of dimension [dim] stored
    together, row-major by vector index (entry [(g, c)] of the batch is
    entry [g] of column [c] and lives next to the other columns' entry
    [g]).

    The layout is chosen for the simulator's batched pipelines: a
    linear map applied to every column at once moves contiguous rows
    ([Array.blit] gathers, fused multiply-adds over [count] floats),
    and the Gram kernel {!gram} streams the batch once per output tile
    with the result tile hot in cache, instead of re-reading two full
    vectors per output entry. *)

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

(** [get b g c] / [set b g c z] access entry [g] of column [c]. *)
val get : t -> int -> int -> Cx.t

val set : t -> int -> int -> Cx.t -> unit

(** [init dim count f] builds the batch with entry [(g, c)] equal to
    [f g c]. *)
val init : int -> int -> (int -> int -> Cx.t) -> t

(** [copy b] is a fresh batch equal to [b]. *)
val copy : t -> t

(** [of_cols vs] packs an array of equal-dimension vectors as columns.
    @raise Invalid_argument on an empty array or ragged dimensions. *)
val of_cols : Vec.t array -> t

(** [col b c] extracts column [c] as a fresh vector. *)
val col : t -> int -> Vec.t

(** [scale_real_inplace alpha b] multiplies every entry by the real
    scalar [alpha], in place. *)
val scale_real_inplace : float -> t -> unit

(** [equal ?eps a b] holds when shapes match and entries agree within
    [eps] (default [1e-9]). *)
val equal : ?eps:float -> t -> t -> bool

(** [blit_row src g dst g'] copies row [g] of [src] (entry [g] of
    every column) over row [g'] of [dst]; [accumulate_row] adds it
    instead.  The allocation-free primitives behind the batched
    simulator's index remaps and fused symmetrizer.
    @raise Invalid_argument on column-count mismatch. *)
val blit_row : t -> int -> t -> int -> unit

val accumulate_row : t -> int -> t -> int -> unit

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
