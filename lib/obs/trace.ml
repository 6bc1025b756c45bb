(* Span tracing with a bounded ring-buffer sink.  A span records the
   wall-clock interval of one timed section (an attack search, a
   runtime execution, a kernel call) together with nesting information
   and key/value attributes.  Spans are recorded on exit, so in the
   buffer children precede their parent; consumers reconstruct the
   tree from [parent] ids or by sorting on start time. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  depth : int;
  start_s : float;  (* seconds since the trace epoch *)
  dur_s : float;
  attrs : (string * value) list;
}

let epoch = ref (Clock.now ())
let default_capacity = 8192
let buf = ref (Array.make default_capacity (None : span option))
let write = ref 0
let stored = ref 0
let dropped_spans = ref 0

(* Guards the ring state above ([epoch], [buf], [write], [stored],
   [dropped_spans]): spans complete concurrently on pool domains.  Ids
   are allocated atomically outside the lock; the open-section stack
   that gives a span its parent and depth lives in [Qdp_obs.section]. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

let next_id = Atomic.make 0

let clear () =
  locked @@ fun () ->
  Array.fill !buf 0 (Array.length !buf) None;
  write := 0;
  stored := 0;
  dropped_spans := 0;
  epoch := Clock.now ()

let set_capacity n =
  if n < 1 then invalid_arg "Qdp_obs.Trace.set_capacity: n >= 1";
  locked (fun () -> buf := Array.make n None);
  clear ()

let capacity () = locked (fun () -> Array.length !buf)
let dropped () = locked (fun () -> !dropped_spans)

(* Oldest-first contents of the ring buffer; call with [lock] held. *)
let contents_unlocked () =
  let b = !buf in
  let n = Array.length b in
  let first = if !stored = n then !write else 0 in
  List.init !stored (fun i ->
      match b.((first + i) mod n) with
      | Some sp -> sp
      | None -> assert false)

let spans () = locked contents_unlocked

(* Spans plus the drop counter under one lock acquisition, so
   exporters reading from a live multi-domain run see a consistent
   pair. *)
let snapshot () = locked (fun () -> (contents_unlocked (), !dropped_spans))

let drop_note () =
  let dropped, cap = locked (fun () -> (!dropped_spans, Array.length !buf)) in
  if dropped = 0 then None
  else
    Some
      (Printf.sprintf
         "trace: %d earlier spans were evicted; the file holds the last %d \
          (the ring's capacity)"
         dropped cap)

let fresh_id () = Atomic.fetch_and_add next_id 1 + 1

let record ~id ~parent ~depth ~t0 ~dur_s ~attrs name =
  locked @@ fun () ->
  let b = !buf in
  let n = Array.length b in
  if !stored = n then incr dropped_spans else incr stored;
  b.(!write) <-
    Some { id; parent; name; depth; start_s = t0 -. !epoch; dur_s; attrs };
  write := (!write + 1) mod n

(* --- exporters --- *)

let json_of_value = function
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f -> Json.float f
  | Str s -> Json.str s

let json_of_attrs attrs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Json.str k ^ ":" ^ json_of_value v) attrs)
  ^ "}"

let json_of_span sp =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"name\":%s,\"depth\":%d,\"start_s\":%s,\"dur_s\":%s,\"attrs\":%s}"
    sp.id sp.parent (Json.str sp.name) sp.depth (Json.float sp.start_s)
    (Json.float sp.dur_s) (json_of_attrs sp.attrs)

let to_jsonl () =
  String.concat "" (List.map (fun sp -> json_of_span sp ^ "\n") (spans ()))

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl ()))

let pp_value fmt = function
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.fprintf fmt "%.6g" f
  | Str s -> Format.pp_print_string fmt s

let pp_duration fmt d =
  if d >= 1. then Format.fprintf fmt "%.3fs" d
  else if d >= 1e-3 then Format.fprintf fmt "%.3fms" (d *. 1e3)
  else Format.fprintf fmt "%.1fus" (d *. 1e6)

(* Pretty tree: spans sorted by start time (a parent starts no later
   than its children, with registration-id as the tiebreak) and
   indented by recorded depth. *)
let pp fmt () =
  let spans, dropped = snapshot () in
  let sorted =
    List.sort
      (fun a b ->
        match Float.compare a.start_s b.start_s with
        | 0 -> compare a.id b.id
        | c -> c)
      spans
  in
  List.iter
    (fun sp ->
      Format.fprintf fmt "%s%-40s %a" (String.make (2 * sp.depth) ' ') sp.name
        pp_duration sp.dur_s;
      List.iter (fun (k, v) -> Format.fprintf fmt " %s=%a" k pp_value v) sp.attrs;
      Format.pp_print_newline fmt ())
    sorted;
  if dropped > 0 then
    Format.fprintf fmt "(+%d spans dropped by the ring buffer)@\n" dropped
