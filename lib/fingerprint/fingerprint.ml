open Qdp_linalg
open Qdp_codes

type t = { code : Linear_code.t }

let make code = { code }

(* [standard] is deterministic in (seed, n), and attack searches /
   repeated instance builds call it with the same few keys over and
   over — memoize the constructed family.  The table is shared across
   domains, so every lookup/insert holds [cache_lock]; the code
   construction itself runs unlocked (two domains racing on a fresh
   key both build the same code, and the loser adopts the winner's
   copy).  A miss is counted only by the call that inserts, and a
   racing loser counts as a hit, so the counts do not depend on timing:
   misses are insertions, and hits + misses are calls.  At the size cap
   one arbitrary binding is evicted, not the whole table, so hot keys
   survive a sweep over many cold ones. *)
let cache_hits = Qdp_obs.Metrics.counter "fingerprint.cache.hits"
let cache_misses = Qdp_obs.Metrics.counter "fingerprint.cache.misses"
let cache_lock = Mutex.create ()
let standard_cache : (int * int, t) Hashtbl.t = Hashtbl.create 64
let standard_cache_limit = 512

let evict_one () =
  match Hashtbl.fold (fun k _ _ -> Some k) standard_cache None with
  | Some k -> Hashtbl.remove standard_cache k
  | None -> ()

let standard ~seed ~n =
  let key = (seed, n) in
  Mutex.lock cache_lock;
  match Hashtbl.find_opt standard_cache key with
  | Some fp ->
      Mutex.unlock cache_lock;
      Qdp_obs.Metrics.incr cache_hits;
      fp
  | None ->
      Mutex.unlock cache_lock;
      let fp = { code = Linear_code.random ~seed ~n ~m:(8 * n) } in
      Mutex.lock cache_lock;
      let fp, counter =
        match Hashtbl.find_opt standard_cache key with
        | Some racing_winner -> (racing_winner, cache_hits)
        | None ->
            if Hashtbl.length standard_cache >= standard_cache_limit then
              evict_one ();
            Hashtbl.add standard_cache key fp;
            (fp, cache_misses)
      in
      Mutex.unlock cache_lock;
      Qdp_obs.Metrics.incr counter;
      fp

let code fp = fp.code
let input_bits fp = Linear_code.message_length fp.code
let dim fp = 2 * Linear_code.block_length fp.code

let ceil_log2 d =
  let rec bits acc k = if k <= 1 then acc else bits (acc + 1) ((k + 1) / 2) in
  bits 0 d

let qubits fp = ceil_log2 (dim fp)
let qubits_of_n n = ceil_log2 (2 * 8 * n)

let state fp x =
  if Gf2.length x <> input_bits fp then invalid_arg "Fingerprint.state: length";
  let m = Linear_code.block_length fp.code in
  let cw = Linear_code.encode fp.code x in
  let amp = 1. /. Float.sqrt (float_of_int m) in
  let v = Vec.create (2 * m) in
  for i = 0 to m - 1 do
    let bit = if Gf2.get cw i then 1 else 0 in
    Vec.set v ((2 * i) + bit) (Cx.re amp)
  done;
  v

let overlap fp x y =
  let m = Linear_code.block_length fp.code in
  let d =
    Gf2.hamming_distance (Linear_code.encode fp.code x)
      (Linear_code.encode fp.code y)
  in
  1. -. (float_of_int d /. float_of_int m)

let accept_prob fp y =
  let hy = state fp y in
  fun psi ->
    if Vec.dim psi <> dim fp then invalid_arg "Fingerprint.accept_prob: dim";
    Cx.norm2 (Vec.dot hy psi)

let bot_state fp = Vec.basis (dim fp) 1
