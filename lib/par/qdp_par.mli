(** Domain-parallel execution over a lazily-started, reusable pool.

    The pool serves one caller: [Qdp_dist.map_shards] runs its
    in-process shards through {!map}.  Grids (attack candidates, fault
    sweeps, Monte-Carlo trials) go through [Qdp_dist], which owns the
    seeded Monte-Carlo loop and decides between worker processes and
    this pool; the dense kernels ([Mat], [Batch]) run sequentially on
    the calling domain.  The pool is built on stdlib [Domain] only —
    no external dependency — and is started on the first parallel
    call, then reused for the life of the process.

    {2 Determinism contract}

    [effective_jobs () = 1] takes the exact sequential path:
    [Array.init] on the calling domain, no pool.  At any other job
    count every index still runs exactly once and writes only its own
    result cell, so results are byte-identical for every value of
    [--jobs].

    {2 Profiling}

    Parallel regions and their tasks are wrapped in
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

(** [effective_jobs ()] is the parallelism {!map} actually uses: [jobs ()] clamped to
    [Domain.recommended_domain_count ()].  Requesting more domains
    than the host has cores is pure scheduling overhead (BENCH_perf
    measured up to 7x slowdowns at [--jobs 4] on a 1-core host), so an
    oversubscribed budget degrades to the sequential path instead.
    The clamp affects scheduling only, never results: the determinism
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

(** [map n f] is [Array.init n f] with one pool task per index.
    Tasks must be independent: they may write only to disjoint state.
    Exceptions raised by tasks are re-raised in the caller — the one
    from the lowest index wins — after every task has finished.  Safe
    to nest: inner regions share the same pool, and blocked callers
    help drain the queue instead of idling.
    @raise Invalid_argument on [n < 0]. *)
val map : int -> (int -> 'a) -> 'a array
