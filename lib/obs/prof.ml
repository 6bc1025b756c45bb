(* Scoped profiler: wall time and GC allocation deltas of the timed
   sections ([Qdp_obs.section]), aggregated per section *path* (the
   "/"-joined chain of enclosing section names on the current domain),
   plus busy/idle accounting for the Qdp_par pool domains.  The
   profiler has its own switch, independent of the metrics/trace
   switch, so [--profile] can be combined freely with
   [--metrics]/[--trace]; every hook is a single atomic-load branch
   while disabled.

   Nesting is per domain: a section entered inside a pool task roots a
   new tree on that worker domain.  The caller-helps
   scheduler means chunks executed by the submitting domain keep their
   full path prefix while chunks executed by workers appear as worker
   roots — both aggregate under their own path and the report shows
   the union. *)

type agg = {
  mutable calls : int;
  mutable wall_s : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable promoted_words : float;
  mutable compactions : int;
}

type dom = { mutable busy_s : float; mutable tasks : int }

let on = Control.prof_on
let set_enabled = Control.set_prof

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

(* All of the following are guarded by [lock].  [order] keeps paths in
   first-recorded order so reports are stable run to run. *)
let table : (string, agg) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref []
let domains : (int, dom) Hashtbl.t = Hashtbl.create 8
let dom_order : int list ref = ref []
let region_wall = ref 0.
let region_count = ref 0

(* Depth of nested [region] calls on this domain: only the outermost
   one contributes wall time, so nested parallel regions (a shard
   that runs its own grid on the pool) are not double-counted. *)
let region_depth_key = Domain.DLS.new_key (fun () -> ref 0)

let reset () =
  locked (fun () ->
      Hashtbl.reset table;
      order := [];
      Hashtbl.reset domains;
      dom_order := [];
      region_wall := 0.;
      region_count := 0)

(* Called with [lock] held. *)
let agg_of path =
  match Hashtbl.find_opt table path with
  | Some a -> a
  | None ->
      let a =
        {
          calls = 0;
          wall_s = 0.;
          minor_words = 0.;
          major_words = 0.;
          promoted_words = 0.;
          compactions = 0;
        }
      in
      Hashtbl.add table path a;
      order := path :: !order;
      a

let record path ~wall_s (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  locked @@ fun () ->
  let a = agg_of path in
  a.calls <- a.calls + 1;
  a.wall_s <- a.wall_s +. wall_s;
  a.minor_words <-
    a.minor_words +. Float.max 0. (g1.Gc.minor_words -. g0.Gc.minor_words);
  a.major_words <-
    a.major_words +. Float.max 0. (g1.Gc.major_words -. g0.Gc.major_words);
  a.promoted_words <-
    a.promoted_words
    +. Float.max 0. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  a.compactions <- a.compactions + max 0 (g1.Gc.compactions - g0.Gc.compactions)

(* --- pool hooks (called from Qdp_par) --- *)

let task f =
  if not (on ()) then f ()
  else begin
    let t0 = Clock.now () in
    let finish () =
      let dt = Float.max 0. (Clock.now () -. t0) in
      let id = (Domain.self () :> int) in
      locked @@ fun () ->
      let d =
        match Hashtbl.find_opt domains id with
        | Some d -> d
        | None ->
            let d = { busy_s = 0.; tasks = 0 } in
            Hashtbl.add domains id d;
            dom_order := id :: !dom_order;
            d
      in
      d.busy_s <- d.busy_s +. dt;
      d.tasks <- d.tasks + 1
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let region f =
  if not (on ()) then f ()
  else begin
    let depth = Domain.DLS.get region_depth_key in
    if !depth > 0 then begin
      incr depth;
      Fun.protect ~finally:(fun () -> decr depth) f
    end
    else begin
      incr depth;
      let t0 = Clock.now () in
      Fun.protect
        ~finally:(fun () ->
          decr depth;
          let dt = Float.max 0. (Clock.now () -. t0) in
          locked (fun () ->
              region_wall := !region_wall +. dt;
              incr region_count))
        f
    end
  end

(* --- snapshots --- *)

type entry = {
  e_path : string;
  e_calls : int;
  e_wall_s : float;
  e_minor_words : float;
  e_major_words : float;
  e_promoted_words : float;
  e_compactions : int;
}

type domain_stat = { dom_id : int; dom_busy_s : float; dom_tasks : int }

let entries () =
  locked @@ fun () ->
  List.rev_map
    (fun path ->
      let a = Hashtbl.find table path in
      {
        e_path = path;
        e_calls = a.calls;
        e_wall_s = a.wall_s;
        e_minor_words = a.minor_words;
        e_major_words = a.major_words;
        e_promoted_words = a.promoted_words;
        e_compactions = a.compactions;
      })
    !order

let domain_stats () =
  locked @@ fun () ->
  List.rev_map
    (fun id ->
      let d = Hashtbl.find domains id in
      { dom_id = id; dom_busy_s = d.busy_s; dom_tasks = d.tasks })
    !dom_order

let regions () = locked (fun () -> (!region_count, !region_wall))

(* --- attribution tree --- *)

type node = {
  n_path : string;
  n_name : string;
  n_calls : int;
  n_wall_s : float;
  n_self_s : float;
  n_minor_words : float;
  n_major_words : float;
  n_promoted_words : float;
  n_compactions : int;
  n_children : node list;
}

let parent_path path =
  match String.rindex_opt path '/' with
  | None -> None
  | Some i -> Some (String.sub path 0 i)

let leaf_name path =
  match String.rindex_opt path '/' with
  | None -> path
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)

(* Build forests from the flat path table: a path is a child of the
   longest recorded prefix; paths whose parent was never recorded (a
   section rooted on a pool domain, or a snapshot taken while the
   parent is still open) become roots.  Self time is total minus the
   recorded time of direct children, clamped at zero because a child
   total can exceed a still-open parent's recorded total. *)
let tree () =
  let es = entries () in
  let children = Hashtbl.create 32 in
  let recorded = Hashtbl.create 32 in
  List.iter (fun e -> Hashtbl.replace recorded e.e_path ()) es;
  let roots = ref [] in
  List.iter
    (fun e ->
      match parent_path e.e_path with
      | Some p when Hashtbl.mem recorded p ->
          let prev =
            match Hashtbl.find_opt children p with Some l -> l | None -> []
          in
          Hashtbl.replace children p (e :: prev)
      | _ -> roots := e :: !roots)
    es;
  let rec build e =
    let kids =
      match Hashtbl.find_opt children e.e_path with
      | Some l -> List.rev_map build l
      | None -> []
    in
    let child_wall = List.fold_left (fun s k -> s +. k.n_wall_s) 0. kids in
    {
      n_path = e.e_path;
      n_name = leaf_name e.e_path;
      n_calls = e.e_calls;
      n_wall_s = e.e_wall_s;
      n_self_s = Float.max 0. (e.e_wall_s -. child_wall);
      n_minor_words = e.e_minor_words;
      n_major_words = e.e_major_words;
      n_promoted_words = e.e_promoted_words;
      n_compactions = e.e_compactions;
      n_children = kids;
    }
  in
  List.rev_map build !roots

(* --- flat profile --- *)

type row = {
  r_name : string;
  r_calls : int;
  r_wall_s : float;
  r_self_s : float;
  r_minor_words : float;
  r_major_words : float;
}

(* Aggregate tree nodes by section name (last path segment) across
   every path they appear under, sorted by self time. *)
let flat () =
  let acc : (string, row ref) Hashtbl.t = Hashtbl.create 32 in
  let names = ref [] in
  let rec visit nd =
    (match Hashtbl.find_opt acc nd.n_name with
    | Some r ->
        r :=
          {
            !r with
            r_calls = !r.r_calls + nd.n_calls;
            r_wall_s = !r.r_wall_s +. nd.n_wall_s;
            r_self_s = !r.r_self_s +. nd.n_self_s;
            r_minor_words = !r.r_minor_words +. nd.n_minor_words;
            r_major_words = !r.r_major_words +. nd.n_major_words;
          }
    | None ->
        Hashtbl.add acc nd.n_name
          (ref
             {
               r_name = nd.n_name;
               r_calls = nd.n_calls;
               r_wall_s = nd.n_wall_s;
               r_self_s = nd.n_self_s;
               r_minor_words = nd.n_minor_words;
               r_major_words = nd.n_major_words;
             });
        names := nd.n_name :: !names);
    List.iter visit nd.n_children
  in
  List.iter visit (tree ());
  let rows = List.rev_map (fun n -> !(Hashtbl.find acc n)) !names in
  List.sort (fun a b -> Float.compare b.r_self_s a.r_self_s) rows

(* --- reports --- *)

let pp_words fmt w =
  if w >= 1e9 then Format.fprintf fmt "%.2fGw" (w /. 1e9)
  else if w >= 1e6 then Format.fprintf fmt "%.2fMw" (w /. 1e6)
  else if w >= 1e3 then Format.fprintf fmt "%.1fkw" (w /. 1e3)
  else Format.fprintf fmt "%.0fw" w

let pp_duration fmt d =
  if d >= 1. then Format.fprintf fmt "%.3fs" d
  else if d >= 1e-3 then Format.fprintf fmt "%.3fms" (d *. 1e3)
  else Format.fprintf fmt "%.1fus" (d *. 1e6)

let pp_domains fmt () =
  let stats = domain_stats () in
  let nregions, wall = regions () in
  if stats = [] then
    Format.fprintf fmt "domains: no parallel regions recorded (jobs = 1?)@\n"
  else begin
    Format.fprintf fmt "domains (%d parallel region%s, region wall %a):@\n"
      nregions
      (if nregions = 1 then "" else "s")
      pp_duration wall;
    List.iter
      (fun d ->
        let idle = Float.max 0. (wall -. d.dom_busy_s) in
        let util = if wall > 0. then 100. *. d.dom_busy_s /. wall else 0. in
        Format.fprintf fmt "  domain %-3d busy %a (%.1f%%)  idle %a  %d tasks@\n"
          d.dom_id pp_duration d.dom_busy_s util pp_duration idle d.dom_tasks)
      stats
  end

let pp_flat fmt () =
  let rows = flat () in
  Format.fprintf fmt "flat profile (by self time):@\n";
  Format.fprintf fmt "  %-28s %10s %12s %12s %10s@\n" "section" "calls"
    "total" "self" "alloc";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %-28s %10d %12s %12s %10s@\n" r.r_name r.r_calls
        (Format.asprintf "%a" pp_duration r.r_wall_s)
        (Format.asprintf "%a" pp_duration r.r_self_s)
        (Format.asprintf "%a" pp_words (r.r_minor_words +. r.r_major_words)))
    rows

let pp_tree fmt () =
  Format.fprintf fmt "attribution tree:@\n";
  let rec walk depth nd =
    Format.fprintf fmt "  %s%-*s %6d calls  %s  self %s  alloc %s@\n"
      (String.make (2 * depth) ' ')
      (max 1 (30 - (2 * depth)))
      nd.n_name nd.n_calls
      (Format.asprintf "%a" pp_duration nd.n_wall_s)
      (Format.asprintf "%a" pp_duration nd.n_self_s)
      (Format.asprintf "%a" pp_words (nd.n_minor_words +. nd.n_major_words));
    List.iter (walk (depth + 1)) nd.n_children
  in
  List.iter (walk 0) (tree ())

let report fmt () =
  let es = entries () in
  if es = [] then Format.fprintf fmt "profile: no sections recorded@\n"
  else begin
    Format.fprintf fmt "profile: %d section path%s@\n" (List.length es)
      (if List.length es = 1 then "" else "s");
    pp_flat fmt ();
    pp_tree fmt ();
    pp_domains fmt ()
  end

let to_json () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"sections\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"path\":%s,\"calls\":%d,\"wall_s\":%s,\"minor_words\":%s,\"major_words\":%s,\"promoted_words\":%s,\"compactions\":%d}"
           (Json.str e.e_path) e.e_calls (Json.float e.e_wall_s)
           (Json.float e.e_minor_words)
           (Json.float e.e_major_words)
           (Json.float e.e_promoted_words)
           e.e_compactions))
    (entries ());
  Buffer.add_string buf "],\"domains\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"id\":%d,\"busy_s\":%s,\"tasks\":%d}" d.dom_id
           (Json.float d.dom_busy_s) d.dom_tasks))
    (domain_stats ());
  let nregions, wall = regions () in
  Buffer.add_string buf
    (Printf.sprintf "],\"regions\":{\"count\":%d,\"wall_s\":%s}}" nregions
       (Json.float wall));
  Buffer.contents buf
