(* Noise-aware comparison of two performance artifacts.  Understands
   the two JSON shapes the repo exports — BENCH_perf.json (groups +
   kernels) and BENCH_obs.json (metrics snapshot with *.seconds
   histograms) — and reduces each to a flat list of (key, group,
   value, seconds) metrics.  The comparator then applies a per-group
   relative threshold and a min-runtime floor: measurements too small
   to time reliably are never flagged, and a change only counts as a
   regression/improvement when the new/old ratio leaves the
   [1/(1+t), 1+t] noise band. *)

type metric = {
  m_key : string;
  m_group : string;
  m_value : float;
  (* magnitude in seconds used for the min-runtime floor; for
     ratio-style values (histogram means) this is the
     total measured seconds behind the value *)
  m_seconds : float;
}

type verdict = Regression | Improvement | Within_noise | Below_floor

type cmp = {
  c_key : string;
  c_group : string;
  c_old : float;
  c_new : float;
  c_ratio : float;
  c_threshold : float;
  c_verdict : verdict;
}

type config = {
  threshold : float;
  group_thresholds : (string * float) list;
  min_seconds : float;
}

let default_config =
  { threshold = 0.25; group_thresholds = []; min_seconds = 0.005 }

(* --- extraction --- *)

let num_field obj name =
  match Json.member name obj with Some v -> Json.num_opt v | None -> None

let str_field obj name =
  match Json.member name obj with Some v -> Json.string_opt v | None -> None

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* BENCH_perf.json: {"groups":[{"group":g,"sequential_s":..,
   "parallel_s":..,"speedup":..}],"kernels":[{"kernel":k,"naive_s":..,
   "batched_s":..,...}]}.  Every *_s field becomes a metric; the
   value itself is the floor magnitude. *)
let of_perf j =
  let of_items items ~name_field ~prefix =
    List.concat_map
      (fun item ->
        match str_field item name_field with
        | None -> []
        | Some g ->
            let fields =
              match item with Json.Obj kvs -> kvs | _ -> []
            in
            List.filter_map
              (fun (k, v) ->
                match Json.num_opt v with
                | Some f when ends_with ~suffix:"_s" k ->
                    Some
                      {
                        m_key = prefix ^ g ^ "." ^ k;
                        m_group = prefix ^ g;
                        m_value = f;
                        m_seconds = f;
                      }
                | _ -> None)
              fields)
      items
  in
  let groups =
    match Json.member "groups" j with Some v -> Json.to_list v | None -> []
  in
  let kernels =
    match Json.member "kernels" j with Some v -> Json.to_list v | None -> []
  in
  of_items groups ~name_field:"group" ~prefix:""
  @ of_items kernels ~name_field:"kernel" ~prefix:"kernel."

(* BENCH_obs.json: mean of every *.seconds histogram in the metrics
   snapshot, floored on the histogram sum. *)
let of_obs j =
  let metrics =
    match Json.member "metrics_snapshot" j with
    | Some snap -> (
        match Json.member "metrics" snap with
        | Some v -> Json.to_list v
        | None -> [])
    | None -> []
  in
  List.filter_map
    (fun item ->
      match
        ( str_field item "name",
          num_field item "count",
          num_field item "sum" )
      with
      | Some name, Some count, Some sum
        when ends_with ~suffix:".seconds" name && count > 0. ->
          Some
            {
              m_key = name ^ ".mean";
              m_group = String.sub name 0 (String.length name - 8);
              m_value = sum /. count;
              m_seconds = sum;
            }
      | _ -> None)
    metrics

let metrics_of_json j =
  match (Json.member "groups" j, Json.member "metrics_snapshot" j) with
  | Some _, _ -> of_perf j
  | None, Some _ -> of_obs j
  | None, None ->
      failwith
        "unrecognized performance artifact: expected the BENCH_perf.json \
         or BENCH_obs.json shape"

let metrics_of_string s =
  match Json.parse s with
  | j -> metrics_of_json j
  | exception Json.Parse_error msg -> failwith ("JSON parse error at " ^ msg)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path = metrics_of_string (read_file path)

(* --- comparison --- *)

type result = {
  compared : cmp list;
  only_old : string list;
  only_new : string list;
}

let threshold_for config group =
  match List.assoc_opt group config.group_thresholds with
  | Some t -> t
  | None -> config.threshold

let diff config ~old_ ~new_ =
  let new_tbl = Hashtbl.create 32 in
  List.iter (fun m -> Hashtbl.replace new_tbl m.m_key m) new_;
  let old_keys = Hashtbl.create 32 in
  List.iter (fun m -> Hashtbl.replace old_keys m.m_key ()) old_;
  let compared =
    List.filter_map
      (fun om ->
        match Hashtbl.find_opt new_tbl om.m_key with
        | None -> None
        | Some nm ->
            let t = threshold_for config om.m_group in
            let ratio =
              if om.m_value > 0. then nm.m_value /. om.m_value
              else if nm.m_value > 0. then infinity
              else 1.
            in
            let verdict =
              if
                om.m_seconds < config.min_seconds
                && nm.m_seconds < config.min_seconds
              then Below_floor
              else if ratio > 1. +. t then Regression
              else if ratio < 1. /. (1. +. t) then Improvement
              else Within_noise
            in
            Some
              {
                c_key = om.m_key;
                c_group = om.m_group;
                c_old = om.m_value;
                c_new = nm.m_value;
                c_ratio = ratio;
                c_threshold = t;
                c_verdict = verdict;
              })
      old_
  in
  let only_old =
    List.filter_map
      (fun m -> if Hashtbl.mem new_tbl m.m_key then None else Some m.m_key)
      old_
  in
  let only_new =
    List.filter_map
      (fun m -> if Hashtbl.mem old_keys m.m_key then None else Some m.m_key)
      new_
  in
  { compared; only_old; only_new }

let regressions r =
  List.length (List.filter (fun c -> c.c_verdict = Regression) r.compared)

(* --- parallel no-slowdown self-check --- *)

(* A BENCH_perf group where the parallel path measurably loses to the
   sequential one is a dispatch bug, not noise: with the
   effective-jobs clamp, oversubscribed or unprofitable grids must
   degrade to the sequential path, so [parallel_s] can never sit above
   [sequential_s] by more than the noise band.  This is a property of
   a single artifact (the NEW one), unlike [diff] which needs a
   baseline. *)

type slowdown = {
  s_group : string;
  s_sequential : float;
  s_parallel : float;
  s_ratio : float;
}

let slowdowns config j =
  let groups =
    match Json.member "groups" j with Some v -> Json.to_list v | None -> []
  in
  List.filter_map
    (fun item ->
      match
        ( str_field item "group",
          num_field item "sequential_s",
          num_field item "parallel_s" )
      with
      | Some g, Some seq, Some par ->
          if
            (seq >= config.min_seconds || par >= config.min_seconds)
            && par > seq *. (1. +. threshold_for config g)
          then
            Some
              {
                s_group = g;
                s_sequential = seq;
                s_parallel = par;
                s_ratio = (if seq > 0. then par /. seq else infinity);
              }
          else None
      | _ -> None)
    groups

let slowdowns_of_file config path =
  match Json.parse (read_file path) with
  | j -> slowdowns config j
  | exception Json.Parse_error msg -> failwith ("JSON parse error at " ^ msg)

let verdict_label = function
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Within_noise -> "ok"
  | Below_floor -> "below floor"

let pp_report fmt r =
  Format.fprintf fmt "%-44s %12s %12s %8s  %s@\n" "metric" "old" "new"
    "ratio" "verdict";
  List.iter
    (fun c ->
      Format.fprintf fmt "%-44s %12.6g %12.6g %8s  %s@\n" c.c_key c.c_old
        c.c_new
        (if Float.is_finite c.c_ratio then
           Printf.sprintf "%.3fx" c.c_ratio
         else "inf")
        (verdict_label c.c_verdict))
    r.compared;
  List.iter
    (fun k -> Format.fprintf fmt "%-44s only in OLD@\n" k)
    r.only_old;
  List.iter
    (fun k -> Format.fprintf fmt "%-44s only in NEW@\n" k)
    r.only_new;
  let count v =
    List.length (List.filter (fun c -> c.c_verdict = v) r.compared)
  in
  Format.fprintf fmt
    "%d compared: %d regression(s), %d improvement(s), %d within noise, %d \
     below floor@\n"
    (List.length r.compared) (count Regression) (count Improvement)
    (count Within_noise) (count Below_floor)
