(** Calibrated per-kernel cost model driving seq/par kernel dispatch.

    Instead of the single hard-coded MAC cutoff
    ([Mat.par_mac_cutoff]), each dense kernel ([mat.*], [batch.*])
    gets a linear cost model [seconds ~ a + b * MACs] (plus an
    allocation rate) fitted separately for its sequential and parallel
    paths from a short startup self-benchmark ([Qdp_linalg.Tune],
    [--model auto]).  The per-kernel crossover (the MAC count where
    the parallel fit starts to win) replaces the fixed cutoff at every
    dispatch site; when no model is installed every site falls back to
    its old deterministic cutoff, so behaviour without calibration is
    unchanged.  Only [Qdp_linalg] consults the model; parallel grids
    are dispatched by [Qdp_dist] alone.

    Dispatch decisions only pick {e which} path runs.  Every kernel
    path produces bit-identical floats, so installing a model (or a
    wrong model) can never change results — only wall-clock. *)

(** {1 Overflow-safe MAC estimates}

    Dense-kernel MAC counts are products of up to four dimensions;
    [1 lsl 16] qubit-ish dimensions overflow native ints long before
    they overflow floats.  All dispatch sites and the model itself
    work in float MACs. *)

val macs2 : int -> int -> float
val macs3 : int -> int -> int -> float
val macs4 : int -> int -> int -> int -> float

(** {1 Fits} *)

type fit = {
  f_a : float;  (** seconds per call at zero MACs (fixed overhead) *)
  f_b : float;  (** seconds per MAC *)
  f_alloc : float;  (** minor GC words per MAC (through-origin fit) *)
  f_n : int;  (** samples behind the fit *)
  f_r2 : float;  (** coefficient of determination of the (a, b) fit *)
}

(** One observation: kernel name, path tag (["seq"] / ["par"]), MACs,
    seconds, minor allocation words. *)
type obs = {
  o_kernel : string;
  o_path : string;
  o_macs : float;
  o_seconds : float;
  o_minor : float;
}

type kernel = {
  k_name : string;
  k_seq : fit option;
  k_par : fit option;
  k_seq_seconds : float;  (** total measured seconds behind [k_seq] *)
  k_par_seconds : float;
}

type t = { m_jobs : int; m_kernels : kernel list }

(** [fit_samples obs] least-squares fit of seconds against MACs over
    [(macs, seconds, minor_words)] triples.  Needs at least two
    samples with distinct MAC counts; slopes and intercept are clamped
    to [>= 0.] (a negative slope is measurement noise, and a model
    that predicts negative time would produce nonsense crossovers). *)
val fit_samples : (float * float * float) list -> fit option

(** [crossover ~seq ~par] is the MAC count beyond which the parallel
    fit predicts less wall-clock than the sequential one; [None] when
    the parallel path never wins (its per-MAC cost is no better). *)
val crossover : seq:fit -> par:fit -> float option

val kernel_crossover : kernel -> float option

(** [of_observations ~jobs obs] groups observations by kernel (first
    seen order) and fits both paths of each. *)
val of_observations : jobs:int -> obs list -> t

(** {1 Installation and dispatch} *)

(** [install m] makes [m] the process-wide model consulted by
    {!decide}; [clear] removes it (all sites back to their static
    fallback). *)
val install : t -> unit

val clear : unit -> unit
val current : unit -> t option

(** Test hook: force every {!decide} to one path regardless of any
    installed model.  [force None] restores normal behaviour. *)
val force : [ `Seq | `Par ] option -> unit

val forced : unit -> [ `Seq | `Par ] option

(** [decide ~kernel ~macs ~default] is [true] when the call should
    take its parallel path: the forced override if set, else the
    installed model's crossover for [kernel], else [default] (the call
    site's static-cutoff fallback). *)
val decide : kernel:string -> macs:float -> default:bool -> bool

(** {1 BENCH_model.json} *)

(** Fixed-shape artifact: top-level [{"jobs":..,"cost_model":[...]}],
    one entry per kernel with [seq] / [par] fit blocks (zeros when a
    path has no fit), [crossover_macs] ([-1] = parallel never wins)
    and the predicted parallel speedup at a fixed probe size.  The CI
    shape gate diffs the key skeleton across runs and job counts. *)
val to_json : t -> string

val write_json : t -> string -> unit
