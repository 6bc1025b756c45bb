(** Kernel calibration sampling for the dense kernels.

    {!sample} wraps one kernel invocation and records its nominal MAC
    count together with measured wall seconds and GC-allocation words
    (minor/major, calling domain only; the kernels run sequentially on
    it).  Per-kernel totals and a tail window of the {e most recent}
    {!max_samples} raw samples are exported by
    {!to_json}/{!write_json} as [BENCH_calib.json] — a tail window
    rather than a head capture, so the samples show steady-state calls
    instead of the cold-start prefix.

    Own switch, same zero-cost discipline as {!Prof}: one atomic-load
    branch per call while disabled. *)

type sample = {
  s_macs : float;
  s_seconds : float;
  s_minor_words : float;
  s_major_words : float;
}

type kernel_view = {
  k_name : string;
  k_calls : int;
  k_macs : float;
  k_seconds : float;
  k_minor_words : float;
  k_major_words : float;
  k_samples : sample list;  (** oldest first *)
}

(** Raw samples kept per kernel (the tail window size); totals keep
    accumulating past it. *)
val max_samples : int

val on : unit -> bool
val set_enabled : bool -> unit

(** [sample ~kernel ~macs f] runs [f] and records one observation for
    [kernel].  [macs] is the nominal multiply-accumulate count of the
    call (complex MACs for the dense kernels).  Exception-safe; when
    the switch is off this is exactly [f ()]. *)
val sample : kernel:string -> macs:float -> (unit -> 'a) -> 'a

(** Per-kernel views in first-seen order. *)
val kernels : unit -> kernel_view list

val reset : unit -> unit

(** [{"calibration":[{"kernel":...,"calls":...,"total_macs":...,
    "total_seconds":...,"ns_per_mac":...,...,"samples":[...]},...]}] *)
val to_json : unit -> string

val write_json : string -> unit
