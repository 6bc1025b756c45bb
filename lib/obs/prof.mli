(** Scoped profiler: section timing, GC-allocation attribution and
    pool busy/idle accounting.

    [Qdp_obs.section] is the only way to open a profiled region; on
    exit the wall-clock delta and the [Gc.quick_stat] deltas
    (minor/major/promoted words, compactions) are added to the
    aggregate for the region's {e path} — the "/"-joined chain of
    enclosing section names on the current domain, e.g.
    ["xval/eq/runtime/perm_accept"].  Aggregates are queried as a flat
    profile ({!flat}), a caller→callee attribution tree ({!tree}), or
    raw entries ({!entries}).

    The profiler has its own switch ({!set_enabled}, the [--profile]
    flag), independent of the metrics/trace switch: while every sink
    is off a section costs a single atomic load and records nothing.

    Nesting is per domain: a section entered inside a [Qdp_par] pool
    task roots a new tree on that worker domain, while chunks the
    submitting domain executes itself (the pool is caller-helps) keep
    their full path prefix.  GC deltas are per-domain too — a section
    covering a parallel region attributes only the calling domain's
    allocation to itself; allocation on the workers lands in the
    sections those workers open.

    The recording hooks themselves allocate a small constant amount
    per call (two [Gc.quick_stat] records and a frame) which is
    included in the enclosing section's delta; it is ~100 words per
    call and does not grow with the work profiled. *)

(** Current state of the profiler switch. *)
val on : unit -> bool

val set_enabled : bool -> unit

(** [record path ~wall_s g0] adds one closed section to [path]'s
    aggregate: [wall_s] seconds, and the GC deltas from the entry
    snapshot [g0] to now.  The sink side of [Qdp_obs.section]. *)
val record : string -> wall_s:float -> Gc.stat -> unit

(** {2 Pool hooks}

    Called by [Qdp_par]; exposed so alternative schedulers could feed
    the same accounting. *)

(** [task f] runs one unit of pool work and adds its wall time to the
    executing domain's busy total. *)
val task : (unit -> 'a) -> 'a

(** [region f] runs a whole parallel region; the outermost region on
    each domain contributes its wall time to the region-wall total
    that {!pp_domains} reports idle time against.  Nested regions are
    not double-counted. *)
val region : (unit -> 'a) -> 'a

(** {2 Snapshots} *)

type entry = {
  e_path : string;
  e_calls : int;
  e_wall_s : float;
  e_minor_words : float;
  e_major_words : float;
  e_promoted_words : float;
  e_compactions : int;
}

type domain_stat = { dom_id : int; dom_busy_s : float; dom_tasks : int }

type node = {
  n_path : string;
  n_name : string;  (** last path segment *)
  n_calls : int;
  n_wall_s : float;
  n_self_s : float;  (** wall minus direct children, clamped at 0 *)
  n_minor_words : float;
  n_major_words : float;
  n_promoted_words : float;
  n_compactions : int;
  n_children : node list;
}

type row = {
  r_name : string;
  r_calls : int;
  r_wall_s : float;
  r_self_s : float;
  r_minor_words : float;
  r_major_words : float;
}

(** Raw per-path aggregates in first-recorded order. *)
val entries : unit -> entry list

(** Per-domain busy time and task count for pool work, in
    first-recorded order.  Empty when no parallel region ran. *)
val domain_stats : unit -> domain_stat list

(** [(count, wall_s)] of outermost parallel regions: the denominator
    for per-domain utilization. *)
val regions : unit -> int * float

(** Attribution forest reconstructed from the path table. *)
val tree : unit -> node list

(** Flat profile: tree nodes aggregated by section name, sorted by
    self time (descending). *)
val flat : unit -> row list

(** Clears all aggregates, domain stats and region totals. *)
val reset : unit -> unit

(** {2 Reports} *)

val pp_flat : Format.formatter -> unit -> unit
val pp_tree : Format.formatter -> unit -> unit
val pp_domains : Format.formatter -> unit -> unit

(** Flat profile + attribution tree + domain busy/idle split. *)
val report : Format.formatter -> unit -> unit

(** One JSON object: [{"sections":[...],"domains":[...],"regions":{...}}]. *)
val to_json : unit -> string
