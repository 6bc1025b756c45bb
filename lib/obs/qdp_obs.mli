(** Observability for the qdp protocol engines.

    {!Metrics} is a process-global registry of named counters, gauges
    and log-scale histograms with snapshot/reset and JSON + CSV
    exporters.  {!section} is the one way to time a region: it records
    a span into the {!Trace} ring buffer (pretty-printer, JSONL
    export) while {!set_enabled}[ true] ([--metrics]/[--trace]), and
    adds to the {!Prof} aggregate while {!Prof.set_enabled}[ true]
    ([--profile]).

    Everything is inert until a switch is on: updates cost one branch
    and closures passed to the recording functions are never
    evaluated, so instrumented hot paths are unaffected in normal
    runs.

    All sinks are safe to feed from concurrent domains (the grids run
    on [Qdp_par] pool domains): counters and span ids are atomic,
    multi-field updates, the trace ring and the profile table take an
    internal mutex, and section nesting is tracked per domain — a
    section opened on a pool worker is a root of that worker, not a
    child of whatever the submitting domain had open. *)

(** The one wall clock every elapsed-time measurement must read.
    {!Clock.now} is [Unix.gettimeofday] behind a monotonic clamp: a
    backwards NTP step can never produce a negative duration, a
    misfired deadline, or a deadline that hangs because its reference
    point lies in the future.  Spans, profiles, shard supervision
    ([Qdp_dist]) and execution deadlines
    ([Qdp_network.Runtime.run_turns]) all go through it. *)
module Clock : sig
  (** Seconds since the epoch, clamped to be non-decreasing across
      every domain of the process. *)
  val now : unit -> float

  (** [set_source (Some f)] swaps the underlying time source — a test
      hook for driving deadline logic with a stepped fake clock;
      [set_source None] restores [Unix.gettimeofday].  Either call
      resets the monotonic clamp, so the non-decreasing guarantee
      holds within one source, not across a swap. *)
  val set_source : (unit -> float) option -> unit
end

module Metrics = Metrics
module Trace = Trace

(** Scoped profiler: section wall/GC attribution, pool busy/idle
    accounting.  Own switch ([--profile]), same zero-cost discipline. *)
module Prof = Prof

(** Live progress heartbeats for long grids ([--progress]). *)
module Progress = Progress

(** Noise-aware comparator behind [qdp perf diff] and the CI perf
    gate. *)
module Perf_diff = Perf_diff

(** Minimal JSON emission and parsing shared by the exporters and the
    comparator. *)
module Json = Json

(** Current state of the global switch. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** [with_enabled b f] runs [f] with the switch forced to [b],
    restoring the previous state afterwards (exception-safe). *)
val with_enabled : bool -> (unit -> 'a) -> 'a

(** [section ?attrs name f] runs [f] as one timed region named [name]
    (which should not contain ['/']), opened on this domain's section
    stack and closed on return or exception (the exception is
    re-raised).  It records into each sink whose switch is on:
    - the trace ring, as a span whose parent and depth come from the
      stack; [attrs] is evaluated once, on exit, and only then;
    - the profile aggregate, under the path of the enclosing section
      names joined by ["/"].

    With every switch off it is exactly [f ()] after one atomic load. *)
val section :
  ?attrs:(unit -> (string * Trace.value) list) -> string -> (unit -> 'a) -> 'a
