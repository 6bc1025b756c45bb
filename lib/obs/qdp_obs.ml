(* Qdp_obs — observability for the qdp protocol engines: a metrics
   registry (counters / gauges / log-scale histograms with JSON and
   CSV exporters), timed sections recorded into a span ring buffer
   and a profile aggregate, and live progress heartbeats.  All
   instrumentation is inert until a switch is on; call sites pay a
   single branch, and attribute/label closures are only evaluated
   while a switch is on. *)

module Clock = Clock
module Metrics = Metrics
module Trace = Trace
module Prof = Prof
module Progress = Progress
module Perf_diff = Perf_diff
module Json = Json

let enabled () = Control.on ()
let set_enabled b = Control.set b

let with_enabled b f =
  let prev = Control.on () in
  Control.set b;
  Fun.protect ~finally:(fun () -> Control.set prev) f

(* One frame per open section on this domain, innermost first: its
   span id ([-1] when tracing was off at entry), its depth, and its
   profile path ([""] when profiling was off at entry).  Nesting is
   per domain, so a section opened inside a pool task roots a new tree
   on that worker in both sinks. *)
type frame = { id : int; depth : int; path : string }

let stack_key = Domain.DLS.new_key (fun () -> ref ([] : frame list))

let section ?attrs name f =
  let sinks = Control.sinks () in
  if sinks = 0 then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let outer = !stack in
    let parent, depth, prefix =
      match outer with
      | [] -> (-1, 0, "")
      | fr :: _ -> (fr.id, fr.depth + 1, fr.path)
    in
    let traced = sinks land Control.obs <> 0 in
    let id = if traced then Trace.fresh_id () else -1 in
    let path =
      if sinks land Control.prof = 0 then ""
      else if prefix = "" then name
      else prefix ^ "/" ^ name
    in
    stack := { id; depth; path } :: outer;
    let g0 = if path = "" then None else Some (Gc.quick_stat ()) in
    let t0 = Clock.now () in
    let finish () =
      let dur_s = Float.max 0. (Clock.now () -. t0) in
      stack := outer;
      Option.iter (Prof.record path ~wall_s:dur_s) g0;
      if traced then
        Trace.record ~id ~parent ~depth ~t0 ~dur_s
          ~attrs:(match attrs with None -> [] | Some mk -> mk ())
          name
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end
