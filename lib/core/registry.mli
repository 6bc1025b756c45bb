(** The protocol registry — one place where every protocol in the
    library is declared once, with its paper reference, parameter
    defaults, demo instances and (when implemented) its message-passing
    network realization.

    The CLI ([bin/qdp.exe]), the conformance runner
    ([bin/tables.exe check]) and the benchmark suite all iterate this
    registry instead of hard-coding per-protocol dispatch.  Protocols
    register via {!register} — see {!Protocols.init}, which installs the
    library's catalog — and downstream code works uniformly through the
    existential {!entry}.  *)

open Qdp_codes
open Qdp_network

(** {2 Parameter specs} *)

(** The network shapes the multi-terminal entries run on. *)
type topology = Star | Path | Cycle | Grid

(** [topology_graph topo ~t] is the graph plus its [t] terminal
    vertices: the star [K_{1,t}], a [2t]-path with every other vertex a
    terminal, the [2t]-cycle likewise, or the [t x 2] grid with the top
    row as terminals. *)
val topology_graph : topology -> t:int -> Graph.t * int list

(** A uniform parameter record every registered protocol draws its
    concrete parameters from; fields a protocol does not use are
    ignored ([d] doubles as the RPLS parity-check count and the Hamming
    tolerance). *)
type spec = {
  seed : int;
  n : int;  (** input length in bits *)
  r : int;  (** path length / radius *)
  t : int;  (** terminals (also: elements per set for Set Equality) *)
  d : int;  (** Hamming tolerance / RPLS parity checks *)
  repetitions : int option;
      (** [None] = the protocol's paper-default amplification *)
  topology : topology;
}

(** CLI defaults: [seed 42, n 32, r 6, t 4, d 2, None, Star]. *)
val default_spec : spec

(** {2 Entries} *)

(** Registration metadata, shown by [qdp list]. *)
type meta = {
  id : string;  (** short stable identifier, e.g. ["eq"] *)
  summary : string;
  reference : string;  (** theorem/algorithm pointer into the paper *)
  cost_formula : string;  (** the paper's asymptotic cost *)
}

(** The inputs demo instances are built from; [x <> y] and
    [big > small] (big-endian) are drawn deterministically from
    [spec.seed]. *)
type demo_ctx = {
  demo_spec : spec;
  x : Gf2.t;
  y : Gf2.t;
  big : Gf2.t;
  small : Gf2.t;
}

(** [context_of ?x ?y spec] derives the demo inputs.  Overrides
    replace the drawn values ([big]/[small] are recomputed). *)
val context_of : ?x:Gf2.t -> ?y:Gf2.t -> spec -> demo_ctx

(** A registered protocol, existential over its instance and prover
    types.  [demo_fix] pins the spec fields the demo suite needs
    (e.g. the relay protocol only makes sense for [r] past the spacing
    threshold); [demo] builds one yes and one no instance; [network],
    when present, is the protocol's sampled message-passing
    realization, the counterpart the differential harness
    ({!Dqma.cross_validate}) checks the analytic path against, staged
    so that [network spec inst prover] prepares the instance once;
    [faulty], when present, is the same realization run under a fault
    environment, staged the same way (the [fault_tolerant] capability
    — `qdp faults` sweeps every entry that has one); [quantum_links]
    records whether the realization forwards quantum registers (so
    the fault sweep knows whether channel noise or classical bit flips
    apply); [conformance] admits the entry into {!demo_suite}. *)
type entry =
  | Entry : {
      meta : meta;
      demo_fix : spec -> spec;
      protocol : spec -> ('i, 'p) Dqma.protocol;
      demo : demo_ctx -> 'i * 'i;
      network : (spec -> ('i, 'p) Dqma.network) option;
      faulty : (spec -> ('i, 'p) Dqma.faulty_network) option;
      quantum_links : bool;
      conformance : bool;
    }
      -> entry

(** [register e] appends [e].
    @raise Invalid_argument on a duplicate id. *)
val register : entry -> unit

(** [all ()] lists entries in registration order. *)
val all : unit -> entry list

(** [find id] looks an entry up by its {!meta} id. *)
val find : string -> entry option

(** [ids ()] lists the registered ids in order. *)
val ids : unit -> string list

(** {2 Uniform drivers} *)

(** A flattened view of an entry for display. *)
type info = {
  info_id : string;
  info_name : string;  (** the protocol's display name at defaults *)
  info_model : Dqma.model;
  info_turns : int;  (** prover↔verifier message turns; 1 = one-shot *)
  info_summary : string;
  info_reference : string;
  info_cost : string;
  info_network : bool;
  info_fault_tolerant : bool;
  info_conformance : bool;
}

(** [info ?spec e] instantiates [e] (default {!default_spec}, after
    [demo_fix]) just enough to read its name and model. *)
val info : ?spec:spec -> entry -> info

(** [evaluate_demo ?x ?y spec e] builds the entry's protocol and demo
    instances from [spec] and runs {!Dqma.evaluate} on both; returns
    [(name, yes evaluation, no evaluation, costs of the yes
    instance)]. *)
val evaluate_demo :
  ?x:Gf2.t ->
  ?y:Gf2.t ->
  spec ->
  entry ->
  string * Dqma.evaluation * Dqma.evaluation * Report.costs

(** [cross_validate_demo ?trials ~st spec e] runs the differential
    harness on the entry's demo instances — [None] when the entry has
    no network realization, otherwise per-instance check lists
    [("yes", checks); ("no", checks)].  [demo_fix] is applied to
    [spec] first so the instances match the suite's shapes. *)
val cross_validate_demo :
  ?trials:int ->
  st:Random.State.t ->
  spec ->
  entry ->
  (string * Dqma.check list) list option

(** {2 Fault experiments}

    The monomorphic view of an entry the fault layer ([Qdp_faults])
    sweeps: the existential is unpacked here, once, so the sweep can
    iterate protocols, strategies and fault plans without touching
    entry internals. *)

(** One (instance, prover strategy) pair ready to execute under a
    fault environment.  [fc_analytic] is the exact noiseless
    single-repetition acceptance — the baseline both invariants
    (soundness contractivity, completeness decay) are measured
    against.  [fc_prepare ()] builds the case's prover states once
    (drawing no randomness) and returns the per-trial run, which
    only draws coins and may be applied any number of times, under
    any fault environment; a caller measuring many trials prepares
    once before its loop (the fault sweep prepares each case once per
    sweep and runs it at every grid point).  [fc_run st env] is the
    one-shot [fc_prepare () st env]. *)
type fault_case = {
  fc_strategy : string;
  fc_analytic : float;
  fc_prepare :
    unit ->
    Random.State.t ->
    Fault_env.t ->
    Runtime.verdict array * Runtime.stats;
  fc_run : Random.State.t -> Fault_env.t -> Runtime.verdict array * Runtime.stats;
}

(** An entry's fault-experiment package: the honest prover on the yes
    instance ([fs_yes]) and the honest prover (if defined) plus the
    whole attack library on the no instance ([fs_no]). *)
type fault_suite = {
  fs_id : string;
  fs_name : string;
  fs_turns : int;
      (** message turns of the protocol, so sweeps can aim a plan's
          [turn] target at a real schedule entry *)
  fs_quantum_links : bool;
  fs_yes : fault_case list;
  fs_no : fault_case list;
}

(** [fault_suite spec e] unpacks [e] for the fault sweep — [None] when
    the entry has no fault-aware realization.  [demo_fix] is applied to
    [spec] first, as in {!cross_validate_demo}.  No case is prepared
    here, so a suite is cheap to hold whatever its size. *)
val fault_suite : spec -> entry -> fault_suite option

(** [demo_suite ~seed] is the conformance suite: one yes and one no
    instance of every [conformance] entry, in registration order, with
    the historical small parameters ([n = 24], [r = 4], [t = 4]).  This
    is what [bin/tables.exe check] prints. *)
val demo_suite : seed:int -> Dqma.packed list
