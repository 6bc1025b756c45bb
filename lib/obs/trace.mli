(** Span tracing with a bounded ring-buffer sink.

    Spans are opened by [Qdp_obs.section]: each records the wall-clock
    interval of one timed section, its nesting depth and parent span,
    and (lazily built) attributes.  Spans are recorded on exit, so in
    buffer order children precede their parent; {!pp} and the JSONL
    export carry enough structure ([id]/[parent]/[depth]) to rebuild
    the tree. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  depth : int;
  start_s : float;  (** seconds since the trace epoch *)
  dur_s : float;
  attrs : (string * value) list;
}

(** {2 Recording} — the sink side of [Qdp_obs.section]. *)

(** A fresh span id ([>= 1]), unique across domains. *)
val fresh_id : unit -> int

(** [record ~id ~parent ~depth ~t0 ~dur_s ~attrs name] stores one
    closed span; [t0] is its absolute entry time ([Clock.now]). *)
val record :
  id:int ->
  parent:int ->
  depth:int ->
  t0:float ->
  dur_s:float ->
  attrs:(string * value) list ->
  string ->
  unit

(** {2 Reading} *)

(** Oldest-first contents of the ring buffer. *)
val spans : unit -> span list

(** Number of spans evicted since the last {!clear}/{!set_capacity}. *)
val dropped : unit -> int

(** [(spans, dropped)] under a single lock acquisition: use this in
    exporters reading from a live multi-domain run, where calling
    {!spans} and {!dropped} separately could observe inconsistent
    pairs. *)
val snapshot : unit -> span list * int

val capacity : unit -> int

(** [drop_note ()] is [None] while the ring has evicted nothing, else
    a one-line warning naming the evicted count and {!capacity} — what
    a [--trace] file cannot say about itself, since its lines are
    spans only. *)
val drop_note : unit -> string option

(** [set_capacity n] replaces the sink with an empty ring of size [n]. *)
val set_capacity : int -> unit

(** [clear ()] empties the sink and restarts the trace epoch. *)
val clear : unit -> unit

(** Pretty tree of the buffered spans, indented by depth. *)
val pp : Format.formatter -> unit -> unit

(** One JSON object per line, one line per span, oldest first. *)
val to_jsonl : unit -> string

val write_jsonl : string -> unit
