(** Shared {!Logs} source for the protocol engines.  Set its level to
    [Debug] to trace attack-library searches. *)

val src : Logs.src

module Log : Logs.LOG

(** [attack_candidate ~proto name p] records one candidate strategy
    [name] with single-round acceptance [p]: a debug log line on the
    [qdp.core] source, plus the [attacks.candidates] counter and the
    [attacks.accept_prob] histogram when {!Qdp_obs} is enabled. *)
val attack_candidate : proto:string -> string -> float -> unit

(** [attack_search ~proto ?attrs f] wraps a whole attack search in a
    ["<proto>.attack_search"] span and bumps [attacks.searches]. *)
val attack_search :
  proto:string ->
  ?attrs:(unit -> (string * Qdp_obs.Trace.value) list) ->
  (unit -> 'a) ->
  'a

(** [best_candidate ~proto ~score candidates] scores every
    [(name, candidate)] as one [Qdp_dist.map_shards] grid, then replays the
    results in list order through {!attack_candidate} and a
    first-strict-improvement max fold — the returned
    [(best score, best name)], the debug log and the metrics are
    byte-identical to a sequential search at every [--jobs]/[--workers]
    value.
    Returns [(0., "none")] on an empty list (or when nothing beats
    0). *)
val best_candidate :
  proto:string -> score:('c -> float) -> (string * 'c) list -> float * string
