(** Noise-aware comparison of two performance artifacts: the engine
    behind [qdp perf diff OLD.json NEW.json] and the CI perf gate.

    Understands the two JSON shapes the repo exports and reduces
    each to flat metrics:
    - [BENCH_perf.json] — every [*_s] timing field of every group and
      kernel entry;
    - [BENCH_obs.json] — the mean of every [*.seconds] histogram in
      the metrics snapshot.

    A metric pair is {e below the floor} (never flagged) when both
    sides measured less than [min_seconds] of runtime; otherwise it is
    a regression when [new/old > 1 + t] and an improvement when
    [new/old < 1 / (1 + t)], where [t] is the group's threshold
    (multiplicatively symmetric noise band). *)

type metric = {
  m_key : string;
  m_group : string;
  m_value : float;
  m_seconds : float;  (** magnitude used for the min-runtime floor *)
}

type verdict = Regression | Improvement | Within_noise | Below_floor

type cmp = {
  c_key : string;
  c_group : string;
  c_old : float;
  c_new : float;
  c_ratio : float;
  c_threshold : float;
  c_verdict : verdict;
}

type config = {
  threshold : float;  (** default relative noise band, e.g. [0.25] *)
  group_thresholds : (string * float) list;  (** per-group overrides *)
  min_seconds : float;  (** min-runtime floor *)
}

(** [{threshold = 0.25; group_thresholds = []; min_seconds = 0.005}] *)
val default_config : config

(** Metrics of a parsed artifact; auto-detects the shape.
    @raise Failure on an unrecognized shape. *)
val metrics_of_json : Json.t -> metric list

(** @raise Failure on malformed JSON or an unrecognized shape. *)
val metrics_of_string : string -> metric list

(** Reads and extracts a file.
    @raise Failure on malformed contents, [Sys_error] on IO. *)
val load : string -> metric list

type result = {
  compared : cmp list;  (** keys present on both sides, in OLD order *)
  only_old : string list;
  only_new : string list;
}

val diff : config -> old_:metric list -> new_:metric list -> result

(** Number of [Regression] verdicts — the perf gate fails when
    positive. *)
val regressions : result -> int

val pp_report : Format.formatter -> result -> unit

(** A BENCH_perf group whose parallel path measurably lost to its own
    sequential baseline — a dispatch bug (the effective-jobs clamp
    should have degraded it to the sequential path), not noise. *)
type slowdown = {
  s_group : string;
  s_sequential : float;
  s_parallel : float;
  s_ratio : float;  (** [parallel_s / sequential_s] *)
}

(** [slowdowns config j] checks a single BENCH_perf-shaped artifact:
    every group where [parallel_s > sequential_s * (1 + t)] (the
    group's threshold) and at least one side clears the [min_seconds]
    floor.  Returns [[]] on artifacts without a [groups] array. *)
val slowdowns : config -> Json.t -> slowdown list

(** [slowdowns_of_file config path] reads, parses and checks.
    @raise Failure on malformed JSON, [Sys_error] on IO. *)
val slowdowns_of_file : config -> string -> slowdown list
