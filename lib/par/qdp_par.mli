(** Domain-parallel execution over a lazily-started, reusable pool.

    The dense kernels ([Mat], [Batch]) split their loops through this
    module, and [Qdp_dist.map_shards] uses it as its in-process path.
    Grids (attack candidates, fault sweeps, Monte-Carlo trials) do not
    call it directly: they go through [Qdp_dist], which owns the seeded
    Monte-Carlo loop and decides between worker processes and this
    pool.  The pool is built on stdlib [Domain] only — no external
    dependency — and is started on the first parallel call, then
    reused for the life of the process.

    {2 Determinism contract}

    [jobs () = 1] takes the exact sequential path: a plain [for] loop
    on the calling domain, no pool, no chunking.  At any other job
    count every iteration still runs exactly once and writes only its
    own state, so results are byte-identical for every value of
    [--jobs].

    {2 Profiling}

    Parallel regions and their task units are wrapped in
    [Qdp_obs.Prof.region]/[Qdp_obs.Prof.task], so with [--profile]
    enabled the profiler reports a per-domain busy/idle split over the
    pool.  While the profiler is off both hooks cost one atomic-load
    branch per region/task. *)

(** [jobs ()] is the worker-domain budget for parallel regions.  The
    first call resolves it from the [QDP_JOBS] environment variable
    when set to a positive integer, otherwise from
    [Domain.recommended_domain_count ()]. *)
val jobs : unit -> int

(** [set_jobs n] overrides the budget (the [--jobs N] flag).  [1]
    disables the pool entirely.
    @raise Invalid_argument on [n < 1]. *)
val set_jobs : int -> unit

(** [effective_jobs ()] is the parallelism every dispatch decision in
    this module actually uses: [jobs ()] clamped to
    [Domain.recommended_domain_count ()].  Requesting more domains
    than the host has cores is pure scheduling overhead (BENCH_perf
    measured up to 7x slowdowns at [--jobs 4] on a 1-core host), so an
    oversubscribed budget degrades to the sequential path instead.
    The clamp affects dispatch only, never results: the determinism
    contract already makes every [--jobs] value byte-identical. *)
val effective_jobs : unit -> int

(** [oversubscribe ()] reports whether the clamp in
    {!effective_jobs} is disabled; default [false]. *)
val oversubscribe : unit -> bool

(** [set_oversubscribe true] lets [effective_jobs] exceed the core
    count — for tests that must exercise real pool semantics
    (spawning, helping, nesting) on small hosts. *)
val set_oversubscribe : bool -> unit

(** [pool_started ()] is [true] once the pool has ever spawned a
    worker domain.  OCaml 5 forbids [Unix.fork] after any domain has
    been created, so the multi-process coordinator ([Qdp_dist]) checks
    this before forking and degrades to the in-process path when the
    pool is already live.  The read is unsynchronized: a false
    negative only means the subsequent fork attempt fails and is
    handled there. *)
val pool_started : unit -> bool

(** [parallel_for ?chunk lo hi body] runs [body i] for every
    [lo <= i < hi], split into blocks of [chunk] indices (default: a
    block count of about 4x the job count).  Iterations must be
    independent: they may write only to disjoint state.  Exceptions
    raised by iterations are re-raised in the caller — the one from
    the earliest block wins — after every block has finished.  Safe to
    nest: inner regions share the same pool, and blocked callers help
    drain the queue instead of idling. *)
val parallel_for : ?chunk:int -> int -> int -> (int -> unit) -> unit

(** [parallel_map_array ?chunk f arr] is [Array.map f arr] with the
    applications distributed over the pool. *)
val parallel_map_array : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
