(* [index] numbers the edges in [edges] order; it is built on first
   use, published atomically so domains can share a graph (a race only
   builds the same index twice), and dropped by [add_edge]. *)
type index = { ids : (int, int) Hashtbl.t array; ends : (int * int) array }

type t = {
  n : int;
  adj : (int, unit) Hashtbl.t array;
  index : index option Atomic.t;
}

let create n =
  if n <= 0 then invalid_arg "Graph.create: need at least one node";
  {
    n;
    adj = Array.init n (fun _ -> Hashtbl.create 4);
    index = Atomic.make None;
  }

let check g u = if u < 0 || u >= g.n then invalid_arg "Graph: node out of range"

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  Hashtbl.replace g.adj.(u) v ();
  Hashtbl.replace g.adj.(v) u ();
  Atomic.set g.index None

let size g = g.n

let neighbours g u =
  check g u;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) g.adj.(u) [])

let degree g u =
  check g u;
  Hashtbl.length g.adj.(u)

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    if degree g u > !best then best := degree g u
  done;
  !best

let has_edge g u v =
  check g u;
  check g v;
  Hashtbl.mem g.adj.(u) v

let edges g =
  let acc = ref [] in
  for u = 0 to g.n - 1 do
    Hashtbl.iter (fun v () -> if u < v then acc := (u, v) :: !acc) g.adj.(u)
  done;
  List.sort compare !acc

let index g =
  match Atomic.get g.index with
  | Some ix -> ix
  | None ->
      let ends = Array.of_list (edges g) in
      let ids = Array.init g.n (fun u -> Hashtbl.create (degree g u)) in
      Array.iteri
        (fun i (u, v) ->
          Hashtbl.replace ids.(u) v i;
          Hashtbl.replace ids.(v) u i)
        ends;
      let ix = { ids; ends } in
      Atomic.set g.index (Some ix);
      ix

let edge_count g = Array.length (index g).ends
let edge g i = (index g).ends.(i)

let edge_id g u v =
  check g u;
  check g v;
  match Hashtbl.find (index g).ids.(u) v with
  | i -> i
  | exception Not_found -> -1

let bfs_distances g src =
  check g src;
  let dist = Array.make g.n max_int in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Hashtbl.iter
      (fun v () ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      g.adj.(u)
  done;
  dist

let is_connected g = Array.for_all (fun d -> d < max_int) (bfs_distances g 0)

let eccentricity g u =
  let dist = bfs_distances g u in
  Array.fold_left
    (fun acc d ->
      if d = max_int then invalid_arg "Graph.eccentricity: disconnected"
      else max acc d)
    0 dist

let radius g =
  let best = ref max_int in
  for u = 0 to g.n - 1 do
    best := min !best (eccentricity g u)
  done;
  !best

let diameter g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    best := max !best (eccentricity g u)
  done;
  !best

let center g =
  let best = ref 0 and best_ecc = ref max_int in
  for u = 0 to g.n - 1 do
    let e = eccentricity g u in
    if e < !best_ecc then begin
      best := u;
      best_ecc := e
    end
  done;
  !best

let path r =
  let g = create (r + 1) in
  for i = 0 to r - 1 do
    add_edge g i (i + 1)
  done;
  g

let cycle n =
  if n < 3 then invalid_arg "Graph.cycle: need n >= 3";
  let g = create n in
  for i = 0 to n - 1 do
    add_edge g i ((i + 1) mod n)
  done;
  g

let star n =
  let g = create (n + 1) in
  for i = 1 to n do
    add_edge g 0 i
  done;
  g

let balanced_tree ~arity ~depth =
  if arity < 1 || depth < 0 then invalid_arg "Graph.balanced_tree";
  (* nodes in BFS order: node k has children k*arity + 1 .. k*arity + arity *)
  let rec count_nodes level acc width =
    if level > depth then acc else count_nodes (level + 1) (acc + width) (width * arity)
  in
  let n = count_nodes 0 0 1 in
  let g = create n in
  for k = 0 to n - 1 do
    for c = 1 to arity do
      let child = (k * arity) + c in
      if child < n then add_edge g k child
    done
  done;
  g

let grid ~w ~h =
  if w < 1 || h < 1 then invalid_arg "Graph.grid";
  let g = create (w * h) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let id = (y * w) + x in
      if x + 1 < w then add_edge g id (id + 1);
      if y + 1 < h then add_edge g id (id + w)
    done
  done;
  g

let random_connected st ~n ~extra_edges =
  let g = create n in
  for v = 1 to n - 1 do
    add_edge g v (Random.State.int st v)
  done;
  let added = ref 0 and attempts = ref 0 in
  while !added < extra_edges && !attempts < 100 * (extra_edges + 1) do
    incr attempts;
    let u = Random.State.int st n and v = Random.State.int st n in
    if u <> v && not (has_edge g u v) then begin
      add_edge g u v;
      incr added
    end
  done;
  g

let to_dot ?(highlight = []) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph network {\n  node [shape=circle];\n";
  for v = 0 to size g - 1 do
    if List.mem v highlight then
      Buffer.add_string buf
        (Printf.sprintf "  %d [style=filled, fillcolor=lightblue];\n" v)
  done;
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v))
    (edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
