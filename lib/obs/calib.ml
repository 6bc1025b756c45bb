(* Kernel calibration sampling: per-call (MAC-count, seconds,
   allocated-words) observations for the dense kernels,
   exported to BENCH_calib.json.  Shares the profiler switch discipline: its own
   atomic on/off flag, one branch per call while disabled.

   Per-kernel totals are unbounded; raw samples live in a fixed-size
   ring so a long run cannot grow memory without bound.  The ring
   keeps the *last* [max_samples] observations — a tail window — so
   the samples show steady-state calls, not the cold-start prefix
   (JIT-warm caches, first-touch page faults, lazy pool spawn all land
   in the first calls). *)

type sample = {
  s_macs : float;
  s_seconds : float;
  s_minor_words : float;
  s_major_words : float;
}

type kernel_view = {
  k_name : string;
  k_calls : int;
  k_macs : float;
  k_seconds : float;
  k_minor_words : float;
  k_major_words : float;
  k_samples : sample list;  (* oldest first *)
}

type kstat = {
  mutable calls : int;
  mutable macs : float;
  mutable seconds : float;
  mutable minor_words : float;
  mutable major_words : float;
  ring : sample array;  (* tail window, written at [next] *)
  mutable next : int;
  mutable kept : int;
}

let max_samples = 512

let dummy_sample =
  { s_macs = 0.; s_seconds = 0.; s_minor_words = 0.; s_major_words = 0. }

let enabled_flag = Atomic.make false
let on () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

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

(* Guarded by [lock]; [order] keeps kernels in first-seen order. *)
let table : (string, kstat) Hashtbl.t = Hashtbl.create 16
let order : string list ref = ref []

let reset () =
  locked @@ fun () ->
  Hashtbl.reset table;
  order := []

let sample ~kernel ~macs f =
  if not (on ()) then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let t0 = Clock.now () in
    let finish () =
      let dt = Float.max 0. (Clock.now () -. t0) in
      let g1 = Gc.quick_stat () in
      let minor = Float.max 0. (g1.Gc.minor_words -. g0.Gc.minor_words) in
      let major = Float.max 0. (g1.Gc.major_words -. g0.Gc.major_words) in
      locked @@ fun () ->
      let k =
        match Hashtbl.find_opt table kernel with
        | Some k -> k
        | None ->
            let k =
              {
                calls = 0;
                macs = 0.;
                seconds = 0.;
                minor_words = 0.;
                major_words = 0.;
                ring = Array.make max_samples dummy_sample;
                next = 0;
                kept = 0;
              }
            in
            Hashtbl.add table kernel k;
            order := kernel :: !order;
            k
      in
      k.calls <- k.calls + 1;
      k.macs <- k.macs +. macs;
      k.seconds <- k.seconds +. dt;
      k.minor_words <- k.minor_words +. minor;
      k.major_words <- k.major_words +. major;
      k.ring.(k.next) <-
        {
          s_macs = macs;
          s_seconds = dt;
          s_minor_words = minor;
          s_major_words = major;
        };
      k.next <- (k.next + 1) mod max_samples;
      if k.kept < max_samples then k.kept <- k.kept + 1
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Oldest-first window: before the ring wraps the window starts at 0,
   after it wraps the oldest surviving sample sits at the write
   cursor. *)
let window k =
  let start = if k.kept < max_samples then 0 else k.next in
  List.init k.kept (fun i -> k.ring.((start + i) mod max_samples))

let kernels () =
  locked @@ fun () ->
  List.rev_map
    (fun name ->
      let k = Hashtbl.find table name in
      {
        k_name = name;
        k_calls = k.calls;
        k_macs = k.macs;
        k_seconds = k.seconds;
        k_minor_words = k.minor_words;
        k_major_words = k.major_words;
        k_samples = window k;
      })
    !order

let json_of_sample s =
  Printf.sprintf
    "{\"macs\":%s,\"seconds\":%s,\"minor_words\":%s,\"major_words\":%s}"
    (Json.float s.s_macs) (Json.float s.s_seconds)
    (Json.float s.s_minor_words)
    (Json.float s.s_major_words)

let to_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"calibration\":[";
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_string buf ",\n";
      let ns_per_mac =
        if k.k_macs > 0. then 1e9 *. k.k_seconds /. k.k_macs else 0.
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"kernel\":%s,\"calls\":%d,\"total_macs\":%s,\"total_seconds\":%s,\"ns_per_mac\":%s,\"minor_words\":%s,\"major_words\":%s,\"samples\":["
           (Json.str k.k_name) k.k_calls (Json.float k.k_macs)
           (Json.float k.k_seconds) (Json.float ns_per_mac)
           (Json.float k.k_minor_words)
           (Json.float k.k_major_words));
      List.iteri
        (fun j s ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (json_of_sample s))
        k.k_samples;
      Buffer.add_string buf "]}")
    (kernels ());
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let write_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ()))
