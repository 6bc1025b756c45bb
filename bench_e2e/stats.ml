(* Summary statistics shared by every workload: the one percentile
   rule, the quartiles [--runs] reports, and failure accounting.

   The percentile rule: report the median plus the highest percentile
   of a fixed ladder that still has at least [tail_beyond] samples
   beyond it, and say which one it was and over how many samples.  A
   fixed ladder (rather than "the 11th-largest sample") keeps the
   chosen percentile from drifting with the sample count between runs
   of one workload.  It stops at p99: on the hot serve workload p99.9
   is one request in a thousand, and on a shared VM those are
   scheduler stalls that move by a third from run to run.  With fewer
   samples than the lowest rung needs the tail is the maximum,
   labelled as such. *)

let tail_beyond = 10
let ladder = [ (0.99, "p99"); (0.9, "p90") ]

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least a [p] share of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly beyond the nearest-rank [p] percentile. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

type summary = {
  n : int;
  p50 : float;
  tail : float;
  tail_label : string;  (** which percentile [tail] is, e.g. ["p99"] *)
}

let summarize samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let tail, tail_label =
    match List.find_opt (fun (p, _) -> beyond n p >= tail_beyond) ladder with
    | Some (p, label) -> (percentile sorted p, label)
    | None -> (sorted.(n - 1), "max")
  in
  { n; p50 = percentile sorted 0.5; tail; tail_label }

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so [--runs] reports the same quartiles the spread check
   computes.  Needs at least two samples. *)
let quartiles samples =
  let d = Array.copy samples in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.)
    [ 1; 2; 3 ]

let median samples =
  if Array.length samples = 1 then samples.(0)
  else List.nth (quartiles samples) 1

(* A growable buffer of latency samples (a serve run records about a
   hundred thousand). *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 4096 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let contents s = Array.sub s.data 0 s.len

(* Failure accounting: every operation a workload attempts (a unit of
   work, a request, an oracle comparison) is recorded once. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let failed_frac t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted
