(** Startup self-benchmark for the {!Qdp_model} kernel cost model.

    {!calibrate} times the dense kernels ([mat.mul], [mat.tensor],
    [batch.gram], [batch.apply_into]) over a small deterministic size
    ladder with dispatch forced first sequential then parallel, and
    fits a {!Qdp_model.t} from the measurements — tens of milliseconds
    of wall clock.  On a host whose effective pool is one domain the
    parallel pass is skipped (it would run the identical sequential
    loops and duplicate the population under a second label), leaving
    every crossover at "never": exactly right for that host. *)

val calibrate : unit -> Qdp_model.t

(** [autotune ()] is [calibrate] followed by {!Qdp_model.install}. *)
val autotune : unit -> Qdp_model.t
