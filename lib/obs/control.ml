(* The observability switches, packed into one atomic int: bit [obs]
   is the metrics/trace switch, bit [prof] the profiler's ([--profile]).
   Every metric update checks [on ()] first, and a timed section checks
   [sinks ()], so with every sink off the instrumented hot paths pay
   one load + branch (from any domain) and closures passed to the
   recording functions are never evaluated. *)

let obs = 1
let prof = 2
let state = Atomic.make 0
let sinks () = Atomic.get state
let on () = sinks () land obs <> 0
let prof_on () = sinks () land prof <> 0

let rec set_bit bit b =
  let s = Atomic.get state in
  let s' = if b then s lor bit else s land lnot bit in
  if not (Atomic.compare_and_set state s s') then set_bit bit b

let set b = set_bit obs b
let set_prof b = set_bit prof b
