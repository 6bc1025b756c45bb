(** The graceful-degradation sweep.

    For every registry entry with a fault-aware realization, for every
    applicable fault {!Plan.kind}, for every strength on the grid, the
    sweep Monte-Carlo estimates the honest acceptance on the yes
    instance (completeness) and the best attack acceptance on the no
    instance (soundness), executing each run under the configured
    {!Plan.recovery}.  Two invariants are checked:

    {ul
    {- {b Soundness never degrades} (Fact 4 contractivity): at every
       noise strength the observed no-instance acceptance must not
       exceed the noiseless analytic soundness bound beyond statistical
       tolerance — the whole Wilson interval sitting above the bound is
       a violation.}
    {- {b Completeness degrades continuously}: the honest-acceptance
       curve must be non-increasing in the strength up to overlapping
       confidence intervals.}}

    Results serialize to a deterministic JSON document
    ([BENCH_faults.json]): same seed, byte-identical output. *)

open Qdp_core
open Qdp_network

type config = {
  seed : int;
  trials : int;  (** Monte-Carlo runs per (case, strength) *)
  grid : float list;  (** fault strengths, increasing *)
  recovery : Plan.recovery;
  protocols : string list option;  (** [None] = every fault-aware entry *)
  kinds : Plan.kind list option;  (** [None] = every applicable kind *)
  turn : int option;
      (** aim every plan at one schedule turn ({!Plan.spec}'s [?turn]);
          [None] = faults strike every turn, the historical behaviour *)
  spec : Registry.spec;
}

(** [default_grid ()] is 0.0 to [max_strength] (default 0.5) in
    [points] (default 11) even steps. *)
val default_grid : ?points:int -> ?max_strength:float -> unit -> float list

(** CLI defaults: 200 trials, the default grid, reject-on-timeout,
    every protocol and kind, [Registry.default_spec] at [seed]. *)
val default : seed:int -> config

(** One Monte-Carlo estimate: the Wilson interval of the acceptance
    rate, the strategy that achieved it (for soundness: the argmax
    attack), and the fault/error tallies across all trials. *)
type measure = {
  m_rate : Runtime.interval;
  m_strategy : string;
  m_errors : int;  (** structured protocol errors, reported not raised *)
  m_injected : int;  (** injected fault events *)
}

type point = {
  pt_strength : float;
  pt_completeness : measure option;  (** [None] when no honest case *)
  pt_soundness : measure option;  (** [None] when no attack case *)
  pt_sound : bool;  (** the soundness invariant held here *)
}

type curve = {
  cv_kind : Plan.kind;
  cv_points : point list;
  cv_monotone : bool;  (** completeness decayed monotonically *)
  cv_sound : bool;  (** every point passed the soundness check *)
}

type proto = {
  pr_id : string;
  pr_name : string;
  pr_quantum_links : bool;
  pr_completeness_analytic : float;  (** noiseless honest acceptance *)
  pr_soundness_bound : float;  (** noiseless max attack acceptance *)
  pr_curves : curve list;
}

type t = {
  sw_seed : int;
  sw_trials : int;
  sw_recovery : Plan.recovery;
  sw_turn : int option;
  sw_grid : float list;
  sw_protocols : proto list;
  sw_soundness_violations : int;
  sw_monotonicity_violations : int;
}

(** Total invariant failures (what the CLI's exit code reports). *)
val violations : t -> int

(** [run cfg] executes the sweep.  Each protocol is one
    [Qdp_dist.map_shards] grid whose task is one fault case — the
    first honest yes case or one no case: the task prepares the case
    once ([Registry.fc_prepare], counted by [faults.cases_prepared])
    and runs it at every (kind, strength) point, returning only
    [(hits, errors, injected)] per point; the coordinator builds the
    measures and regroups them into points and curves.  All
    randomness derives from [cfg.seed] plus stable (protocol, kind,
    grid, side, case) indices, so a rerun is bit-identical — at any
    [--jobs]/[--workers] value — and restricting [protocols]/[kinds]
    never shifts the seeds of what is still swept.  Each point
    increments [faults.points]; failed soundness checks increment
    [faults.soundness_violations]. *)
val run : config -> t

(** Deterministic single-line JSON (floats as [%.6f]).  The [turn]
    field appears only when the sweep targeted one, so untargeted
    sweeps keep their historical byte layout. *)
val to_json : t -> string

val write_json : string -> t -> unit

(** A human-readable per-curve summary. *)
val pp_summary : Format.formatter -> t -> unit
