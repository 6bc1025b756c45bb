(* Bench-side spans: one per call the benchmark makes into a layer's
   public function (a per-entry cross-validation, a sweep, a client
   request, a child process).  They live in memory, apart from the
   program's own Qdp_obs trace ring, and are written out as JSONL when
   the run ends.  Recording is on only in a traced run. *)

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  start_s : float;  (* seconds since recording started *)
  dur_s : float;
}

(* Bounded so a traced serve run cannot grow memory without limit;
   spans past the cap are counted, not kept. *)
let cap = 65536
let on = ref false
let epoch = ref 0.
let recorded : span list ref = ref []
let kept = ref 0
let dropped = ref 0
let next_id = ref 0
let stack : int list ref = ref []

let start () =
  on := true;
  epoch := Proc.now ()

let push s =
  if !kept >= cap then incr dropped
  else begin
    incr kept;
    recorded := s :: !recorded
  end

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !stack with p :: _ -> p | [] -> -1

(* [add name ~start ~dur] records an interval measured by the caller,
   e.g. a request whose reply arrived asynchronously. *)
let add name ~start ~dur =
  if !on then
    push
      { id = fresh_id (); parent = current (); name; start_s = start -. !epoch; dur_s = dur }

(* [with_span name f] records [f ()]'s interval; spans opened inside
   [f] become its children. *)
let with_span name f =
  if not !on then f ()
  else begin
    let id = fresh_id () and parent = current () in
    stack := id :: !stack;
    let t0 = Proc.now () in
    Fun.protect f ~finally:(fun () ->
        stack := List.tl !stack;
        push { id; parent; name; start_s = t0 -. !epoch; dur_s = Proc.now () -. t0 })
  end

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%s,\"start_s\":%s,\"dur_s\":%s}\n"
            s.id s.parent (Qdp_obs.Json.str s.name) (Qdp_obs.Json.float s.start_s)
            (Qdp_obs.Json.float s.dur_s))
        (List.rev !recorded);
      if !dropped > 0 then Printf.fprintf oc "{\"dropped\":%d}\n" !dropped)
