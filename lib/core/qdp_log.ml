(* Shared Logs source for the protocol engines; enable with
   Logs.Src.set_level (debug traces of the attack searches). *)
let src = Logs.Src.create "qdp.core" ~doc:"dQMA protocol engines"

module Log = (val Logs.src_log src : Logs.LOG)

(* Attack-search instrumentation shared by every engine, so `-v`
   debug logging and Qdp_obs metrics/tracing stay in agreement: each
   candidate strategy goes through [attack_candidate], and every
   search is wrapped in [attack_search] which emits a span plus a
   searches counter. *)

let obs_searches = Qdp_obs.Metrics.counter "attacks.searches"
let obs_candidates = Qdp_obs.Metrics.counter "attacks.candidates"
let obs_accept_prob = Qdp_obs.Metrics.histogram "attacks.accept_prob"

let attack_candidate ~proto name p =
  Log.debug (fun m -> m "%s attack %s: single-round accept %.6g" proto name p);
  Qdp_obs.Metrics.incr obs_candidates;
  Qdp_obs.Metrics.observe obs_accept_prob p

let attack_search ~proto ?attrs f =
  Qdp_obs.Metrics.incr obs_searches;
  Qdp_obs.section ?attrs (proto ^ ".attack_search") f

(* Candidate grids are independent, so score them as one grid;
   the results are then replayed in list order through
   [attack_candidate] and the max fold, so logs, metrics and
   tie-breaking (first strict improvement wins) are exactly those of
   the sequential search, at every job count.  The progress handle
   ticks per scored candidate, from whichever domain scores it. *)
let best_candidate ~proto ~score candidates =
  let arr = Array.of_list candidates in
  let progress =
    Qdp_obs.Progress.start ~total:(Array.length arr) ("attack/" ^ proto)
  in
  let eval i =
    let _, c = arr.(i) in
    let s = score c in
    Qdp_obs.Progress.step progress;
    s
  in
  let scores =
    Qdp_dist.map_shards ~label:("attack/" ^ proto) ~n:(Array.length arr) eval
  in
  Qdp_obs.Progress.finish progress;
  let best = ref 0. and best_name = ref "none" in
  Array.iteri
    (fun i (name, _) ->
      let a = scores.(i) in
      attack_candidate ~proto name a;
      if a > !best then begin
        best := a;
        best_name := name
      end)
    arr;
  (!best, !best_name)
