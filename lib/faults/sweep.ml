open Qdp_core
open Qdp_network

type config = {
  seed : int;
  trials : int;
  grid : float list;
  recovery : Plan.recovery;
  protocols : string list option;
  kinds : Plan.kind list option;
  turn : int option;
  spec : Registry.spec;
}

let default_grid ?(points = 11) ?(max_strength = 0.5) () =
  if points < 2 then invalid_arg "Sweep.default_grid: need >= 2 points";
  List.init points (fun i ->
      max_strength *. float_of_int i /. float_of_int (points - 1))

let default ~seed =
  {
    seed;
    trials = 200;
    grid = default_grid ();
    recovery = Plan.Reject_on_timeout;
    protocols = None;
    kinds = None;
    turn = None;
    spec = { Registry.default_spec with seed };
  }

type measure = {
  m_rate : Runtime.interval;
  m_strategy : string;
  m_errors : int;
  m_injected : int;
}

type point = {
  pt_strength : float;
  pt_completeness : measure option;
  pt_soundness : measure option;
  pt_sound : bool;
}

type curve = {
  cv_kind : Plan.kind;
  cv_points : point list;
  cv_monotone : bool;
  cv_sound : bool;
}

type proto = {
  pr_id : string;
  pr_name : string;
  pr_quantum_links : bool;
  pr_completeness_analytic : float;
  pr_soundness_bound : float;
  pr_curves : curve list;
}

type t = {
  sw_seed : int;
  sw_trials : int;
  sw_recovery : Plan.recovery;
  sw_turn : int option;
  sw_grid : float list;
  sw_protocols : proto list;
  sw_soundness_violations : int;
  sw_monotonicity_violations : int;
}

let violations sw = sw.sw_soundness_violations + sw.sw_monotonicity_violations

let obs_points = Qdp_obs.Metrics.counter "faults.points"
let obs_violations = Qdp_obs.Metrics.counter "faults.soundness_violations"
let obs_prepared = Qdp_obs.Metrics.counter "faults.cases_prepared"

(* Statistical slack: a soundness observation only counts as a
   violation when the whole Wilson interval sits above the analytic
   bound. *)
let eps = 1e-9

let index_of x xs =
  let rec go i = function
    | [] -> -1
    | y :: ys -> if y = x then i else go (i + 1) ys
  in
  go 0 xs

(* One task of the sweep: a (side, case) pair, prepared once and run
   at every (kind, strength) point of [points].  Every RNG derives from
   (seed, registry index, kind index, grid index, side, case index), so
   reruns are bit-identical, the order in which points are run does not
   matter, and filtering protocols or kinds never shifts the seeds of
   what is still swept.  Returns [(hits, errors, injected)] per point:
   plain ints keep worker frames small, and the coordinator builds the
   measures. *)
let case_counts cfg ~pi ~side ~ci points (case : Registry.fault_case) =
  Qdp_obs.Metrics.incr obs_prepared;
  let run = case.fc_prepare () in
  Array.map
    (fun (kind, ki, xi, p) ->
      let stream k =
        Random.State.make [| cfg.seed; pi; ki; xi; side; ci; k |]
      in
      let proto_st = stream 0 in
      let fault_st = stream 1 in
      let env = Plan.env ?turn:cfg.turn kind ~strength:p ~st:fault_st in
      let hits = ref 0 and errors = ref 0 and injected = ref 0 in
      for _ = 1 to cfg.trials do
        let o = Plan.execute cfg.recovery (fun () -> run proto_st env) in
        if o.accepted then incr hits;
        errors := !errors + o.protocol_errors;
        injected := !injected + o.injected
      done;
      (!hits, !errors, !injected))
    points

let measure cfg (case : Registry.fault_case) (hits, errors, injected) =
  {
    m_rate = Runtime.wilson ~hits ~trials:cfg.trials ();
    m_strategy = case.fc_strategy;
    m_errors = errors;
    m_injected = injected;
  }

(* Completeness must decay monotonically (up to overlapping confidence
   intervals): a later point whose whole interval sits above an earlier
   point's interval breaks the curve. *)
let monotone points =
  let rec go = function
    | ({ pt_completeness = Some a; _ } as _x)
      :: ({ pt_completeness = Some b; _ } as y) :: rest ->
        if b.m_rate.Runtime.lower > a.m_rate.Runtime.upper +. eps then false
        else go (y :: rest)
    | _ :: rest -> go rest
    | [] -> true
  in
  go points

let sweep_entry cfg ~pi entry =
  match Registry.fault_suite cfg.spec entry with
  | None -> None
  | Some suite ->
      Qdp_obs.section suite.fs_id @@ fun () ->
      let bound =
        List.fold_left (fun acc c -> Float.max acc c.Registry.fc_analytic) 0.
          suite.fs_no
      in
      let completeness_analytic =
        match suite.fs_yes with
        | [] -> 0.
        | c :: _ -> c.Registry.fc_analytic
      in
      let kinds =
        match cfg.kinds with
        | None -> Plan.applicable ~quantum_links:suite.fs_quantum_links
        | Some ks ->
            List.filter
              (fun k ->
                List.mem k
                  (Plan.applicable ~quantum_links:suite.fs_quantum_links))
              ks
      in
      let points =
        Array.of_list
          (List.concat_map
             (fun kind ->
               let ki = index_of kind Plan.all in
               List.mapi (fun xi p -> (kind, ki, xi, p)) cfg.grid)
             kinds)
      in
      (* The unit of work is a case: task [i] prepares [cases.(i)] —
         the first honest yes case (side 0), then every no case in [ci]
         order (side 1) — and measures it over the whole kinds x
         strengths grid (see [case_counts]), so each case is prepared
         once per sweep.  Results are stored by task index, so
         regrouping them into points is bit-identical at any
         [--jobs]/[--workers]. *)
      let yes = List.filteri (fun i _ -> i = 0) suite.fs_yes in
      let nyes = List.length yes in
      let cases = Array.of_list (yes @ suite.fs_no) in
      let label = "faults/" ^ suite.fs_id in
      let progress = Qdp_obs.Progress.start ~total:(Array.length cases) label in
      let counts =
        Qdp_dist.map_shards ~label ~n:(Array.length cases) (fun i ->
            let side, ci = if i < nyes then (0, 0) else (1, i - nyes) in
            let r = case_counts cfg ~pi ~side ~ci points cases.(i) in
            Qdp_obs.Progress.step progress;
            r)
      in
      Qdp_obs.Progress.finish progress;
      let measure_at i j = measure cfg cases.(i) counts.(i).(j) in
      let hits i j =
        let h, _, _ = counts.(i).(j) in
        h
      in
      let point j (_, _, _, p) =
        Qdp_obs.Metrics.incr obs_points;
        let completeness = if nyes = 0 then None else Some (measure_at 0 j) in
        (* soundness reports the best attack: the first no case (in [ci]
           order) with the most hits, so only its measure is built *)
        let best = ref None in
        for i = nyes to Array.length cases - 1 do
          match !best with
          | Some b when hits b j >= hits i j -> ()
          | _ -> best := Some i
        done;
        let soundness = Option.map (fun i -> measure_at i j) !best in
        let sound =
          match soundness with
          | None -> true
          | Some m -> m.m_rate.Runtime.lower <= bound +. eps
        in
        if not sound then Qdp_obs.Metrics.incr obs_violations;
        { pt_strength = p; pt_completeness = completeness;
          pt_soundness = soundness; pt_sound = sound }
      in
      let measured = Array.mapi point points in
      let npoints = List.length cfg.grid in
      let curves =
        List.mapi
          (fun k kind ->
            let points =
              Array.to_list (Array.sub measured (k * npoints) npoints)
            in
            {
              cv_kind = kind;
              cv_points = points;
              cv_monotone = monotone points;
              cv_sound = List.for_all (fun pt -> pt.pt_sound) points;
            })
          kinds
      in
      Some
        {
          pr_id = suite.fs_id;
          pr_name = suite.fs_name;
          pr_quantum_links = suite.fs_quantum_links;
          pr_completeness_analytic = completeness_analytic;
          pr_soundness_bound = bound;
          pr_curves = curves;
        }

let run cfg =
  Qdp_obs.section "fault_sweep" @@ fun () ->
  let entries = Registry.all () in
  let selected pi entry =
    let id = (Registry.info entry).Registry.info_id in
    ignore pi;
    match cfg.protocols with
    | None -> true
    | Some ids -> List.mem id ids
  in
  let protos =
    List.concat
      (List.mapi
         (fun pi entry ->
           if selected pi entry then
             match sweep_entry cfg ~pi entry with
             | Some p -> [ p ]
             | None -> []
           else [])
         entries)
  in
  let count f =
    List.fold_left
      (fun acc pr ->
        List.fold_left (fun acc cv -> acc + f cv) acc pr.pr_curves)
      0 protos
  in
  {
    sw_seed = cfg.seed;
    sw_trials = cfg.trials;
    sw_recovery = cfg.recovery;
    sw_turn = cfg.turn;
    sw_grid = cfg.grid;
    sw_protocols = protos;
    sw_soundness_violations =
      count (fun cv ->
          List.length (List.filter (fun pt -> not pt.pt_sound) cv.cv_points));
    sw_monotonicity_violations =
      count (fun cv -> if cv.cv_monotone then 0 else 1);
  }

(* ------------------------------------------------------------------ *)
(* Deterministic JSON                                                  *)
(* ------------------------------------------------------------------ *)

let fl x = Printf.sprintf "%.6f" x

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_measure name m =
  Printf.sprintf
    "\"%s\":{\"strategy\":\"%s\",\"rate\":%s,\"lower\":%s,\"upper\":%s,\"protocol_errors\":%d,\"injected\":%d}"
    name (escape m.m_strategy) (fl m.m_rate.Runtime.point)
    (fl m.m_rate.Runtime.lower) (fl m.m_rate.Runtime.upper) m.m_errors
    m.m_injected

let json_point pt =
  let fields =
    [ Printf.sprintf "\"p\":%s" (fl pt.pt_strength) ]
    @ (match pt.pt_completeness with
      | None -> []
      | Some m -> [ json_measure "completeness" m ])
    @ (match pt.pt_soundness with
      | None -> []
      | Some m -> [ json_measure "soundness" m ])
    @ [ Printf.sprintf "\"sound\":%b" pt.pt_sound ]
  in
  "{" ^ String.concat "," fields ^ "}"

let json_curve cv =
  Printf.sprintf
    "{\"kind\":\"%s\",\"monotone\":%b,\"sound\":%b,\"points\":[%s]}"
    (Plan.name cv.cv_kind) cv.cv_monotone cv.cv_sound
    (String.concat "," (List.map json_point cv.cv_points))

let json_proto pr =
  Printf.sprintf
    "{\"id\":\"%s\",\"name\":\"%s\",\"quantum_links\":%b,\"completeness_analytic\":%s,\"soundness_bound\":%s,\"curves\":[%s]}"
    (escape pr.pr_id) (escape pr.pr_name) pr.pr_quantum_links
    (fl pr.pr_completeness_analytic)
    (fl pr.pr_soundness_bound)
    (String.concat "," (List.map json_curve pr.pr_curves))

let to_json sw =
  let turn_field =
    match sw.sw_turn with
    | None -> ""
    | Some t -> Printf.sprintf "\"turn\":%d," t
  in
  Printf.sprintf
    "{\"seed\":%d,\"trials\":%d,\"recovery\":\"%s\",%s\"grid\":[%s],\"protocols\":[%s],\"soundness_violations\":%d,\"monotonicity_violations\":%d}\n"
    sw.sw_seed sw.sw_trials
    (escape (Plan.recovery_name sw.sw_recovery))
    turn_field
    (String.concat "," (List.map fl sw.sw_grid))
    (String.concat "," (List.map json_proto sw.sw_protocols))
    sw.sw_soundness_violations sw.sw_monotonicity_violations

let write_json path sw =
  let oc = open_out path in
  output_string oc (to_json sw);
  close_out oc

let pp_summary ppf sw =
  Format.fprintf ppf "fault sweep: seed %d, %d trials/point, recovery %s%s@,"
    sw.sw_seed sw.sw_trials
    (Plan.recovery_name sw.sw_recovery)
    (match sw.sw_turn with
    | None -> ""
    | Some t -> Printf.sprintf ", turn %d" t);
  List.iter
    (fun pr ->
      Format.fprintf ppf "@,%s (%s links, soundness bound %.4f):@," pr.pr_id
        (if pr.pr_quantum_links then "quantum" else "classical")
        pr.pr_soundness_bound;
      List.iter
        (fun cv ->
          let c_ends =
            match
              ( (List.hd cv.cv_points).pt_completeness,
                (List.hd (List.rev cv.cv_points)).pt_completeness )
            with
            | Some a, Some b ->
                Format.asprintf "completeness %.3f -> %.3f"
                  a.m_rate.Runtime.point b.m_rate.Runtime.point
            | _ -> "no completeness case"
          in
          Format.fprintf ppf "  %-11s %s%s%s@," (Plan.name cv.cv_kind) c_ends
            (if cv.cv_monotone then "" else "  NON-MONOTONE")
            (if cv.cv_sound then "" else "  SOUNDNESS VIOLATION"))
        pr.pr_curves)
    sw.sw_protocols;
  Format.fprintf ppf "@,%d soundness violation(s), %d monotonicity warning(s)@,"
    sw.sw_soundness_violations sw.sw_monotonicity_violations
