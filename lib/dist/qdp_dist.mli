(** The one front door for parallel grids, with fault-tolerant
    multi-process sharding behind it.

    Every grid in the engines — attack-candidate scores, fault-sweep
    points, cross-validation strategies, Monte-Carlo trial chunks —
    runs through {!map_shards} or {!monte_carlo_hits}; nothing outside
    [lib/dist] calls [Qdp_par] directly.  {!map_shards} picks the
    execution:

    - [workers () > 0], outermost region, [n > 1], domain pool not yet
      started: fork worker processes.  The coordinator forks
      [workers ()] children (which inherit the shard closure — nothing
      but results crosses the pipe), hands out shards over
      length-prefixed CRC-checked frames ({!Frame}), and supervises
      them with per-shard deadlines, bounded retries with exponential
      backoff + jitter ({!Backoff}), and deterministic reassignment.  A
      worker that crashes, hangs past the shard deadline, or returns a
      corrupt frame is killed and replaced; a shard that exhausts its
      attempt budget is computed in-process.
    - otherwise: [Qdp_par.map] over the same indices, one pool task
      per shard.

    A {e fallback} is the one case where processes were asked for and
    could not be used: an outermost region with [workers () > 0] and
    [n > 1] whose fork is impossible because the [Qdp_par] pool
    already started (OCaml 5 forbids [fork] after a domain spawn) or
    the fork failed.  Only that case bumps [dist.fallbacks] and writes
    a [rp_fallback] {!report}.  Nested regions and one-shard regions
    run in-process without counting: there is nothing to fork for.

    {2 Determinism contract}

    Shard [i] must be a self-seeded pure function of [i] (every wired
    call site derives per-shard RNG state from the shard index).  The
    coordinator stores results by shard index, so the output array —
    and, through it, every downstream artifact — is byte-identical to
    the [--jobs 1 --workers 0] run no matter which workers die, in what
    order shards are retried, or what the chaos mode injects.  Chaos
    events are keyed on [(chaos seed, shard, attempt)], never on worker
    identity or time, so event {e counts} are reproducible too.

    Every transition is visible when observability is on: [dist.*]
    counters (tasks, results, retries, crashes, hangs, corrupt frames,
    duplicates, respawns, degraded shards, fallbacks), a span per
    forked region, and [Progress] heartbeats per completed shard. *)

module Backoff = Backoff
module Frame = Frame

(** {2 Configuration}

    Each knob resolves lazily from its environment variable on first
    read; the setters (the CLI flags) win over the environment. *)

(** Worker-process budget.  [QDP_WORKERS]; default [0] = disabled
    (in-process execution). *)
val workers : unit -> int

(** @raise Invalid_argument on [n < 0]. *)
val set_workers : int -> unit

(** Per-shard deadline in seconds before a busy worker is declared
    hung and killed.  [QDP_DIST_TIMEOUT] (NaN or a value that does
    not parse falls back to the default); default [30.]; [<= 0]
    disables hang detection. *)
val shard_timeout : unit -> float

(** @raise Invalid_argument on NaN. *)
val set_shard_timeout : float -> unit

(** Attempt budget per shard (including the first try) before the
    shard degrades to in-process computation.  Default [4]. *)
val max_attempts : unit -> int

(** @raise Invalid_argument on [n < 1]. *)
val set_max_attempts : int -> unit

(** Worker-respawn budget per region: [-1] (default) = unbounded —
    safe, since total work is already bounded by
    [shards * max_attempts] — or a cap after which the region runs
    with the surviving workers (possibly none: full degradation). *)
val respawn_budget : unit -> int

val set_respawn_budget : int -> unit

(** Chaos injection probability in [0, 1].  [QDP_CHAOS]; default [0.].
    With probability [p] {e per shard attempt} (decided from
    [(chaos_seed, shard, attempt)]) the worker crashes before
    acknowledging, hangs after acknowledging, or replies with a
    corrupt frame — exercising every recovery path while the final
    output stays byte-identical. *)
val chaos : unit -> float

(** @raise Invalid_argument unless [0. <= p <= 1.]. *)
val set_chaos : float -> unit

(** Seed for the chaos schedule.  Default [42]. *)
val chaos_seed : unit -> int

val set_chaos_seed : int -> unit

(** {2 Execution} *)

(** Shard accounting for the most recent region that forked or fell
    back.  In-process regions with nothing to fork (see above) write
    none. *)
type report = {
  rp_label : string;
  rp_workers : int;  (** workers actually forked (0 = in-process) *)
  rp_shards : int;
  rp_from_workers : int;  (** shards answered over the pipe *)
  rp_in_process : int;  (** shards computed by the coordinator *)
  rp_retries : int;  (** shard reassignments after a failure *)
  rp_crashes : int;  (** workers that died mid-shard *)
  rp_hangs : int;  (** workers killed for missing a deadline *)
  rp_corrupt : int;  (** corrupt frames detected (CRC/decode) *)
  rp_duplicates : int;  (** late results for already-done shards *)
  rp_respawns : int;  (** replacement workers forked *)
  rp_degraded : int;  (** shards past their attempt budget *)
  rp_fallback : bool;  (** a fallback: whole region ran in-process *)
}

(** Report for the last region that wrote one, if any — a
    test/diagnostics hook. *)
val last_report : unit -> report option

(** [map_shards ?label ~n f] is [Array.init n f], run as described
    above.  [f] must be pure, self-seeded per index, and its results
    marshalable plain data (no closures).  Exceptions raised by [f]
    keep sequential semantics: the failing shard is re-run in-process
    so the original exception propagates.  [label] names the region's
    span, progress line and {!report}. *)
val map_shards : ?label:string -> n:int -> (int -> 'r) -> 'r array

(** Trials per RNG chunk in {!monte_carlo_hits}: part of the
    determinism contract (changing it changes every sampled number),
    so it is fixed and public. *)
val mc_chunk : int

(** [monte_carlo_hits ?label ~st ~trials f] counts how often the
    randomized trial [f] returns [true] over [trials] runs.  The
    trials are partitioned into {!mc_chunk}-sized chunks; chunk [k]
    runs on its own RNG state, the [k]-th state split off [st] on the
    caller ([st] itself advances by exactly the number of chunks), and
    the chunks are the shards of one {!map_shards} region labelled
    [label ^ "/mc"].  The count — and the caller's [st] — are
    therefore byte-identical at every [--jobs]/[--workers]
    combination.  Returns [0] when [trials <= 0]. *)
val monte_carlo_hits :
  ?label:string ->
  st:Random.State.t ->
  trials:int ->
  (Random.State.t -> bool) ->
  int
