open Qdp_codes
open Qdp_network

type topology = Star | Path | Cycle | Grid

let topology_graph topo ~t =
  match topo with
  | Star -> (Graph.star t, List.init t (fun i -> i + 1))
  | Path -> (Graph.path (2 * t), List.init t (fun i -> 2 * i))
  | Cycle -> (Graph.cycle (2 * t), List.init t (fun i -> 2 * i))
  | Grid ->
      let g = Graph.grid ~w:t ~h:2 in
      (g, List.init t (fun i -> i))

type spec = {
  seed : int;
  n : int;
  r : int;
  t : int;
  d : int;
  repetitions : int option;
  topology : topology;
}

let default_spec =
  { seed = 42; n = 32; r = 6; t = 4; d = 2; repetitions = None; topology = Star }

type meta = {
  id : string;
  summary : string;
  reference : string;
  cost_formula : string;
}

type demo_ctx = {
  demo_spec : spec;
  x : Gf2.t;
  y : Gf2.t;
  big : Gf2.t;
  small : Gf2.t;
}

let context_of ?x ?y spec =
  let st = Random.State.make [| spec.seed; 0xd9a |] in
  let x = match x with Some x -> x | None -> Gf2.random st spec.n in
  let y =
    match y with
    | Some y -> y
    | None ->
        let rec go () =
          let y = Gf2.random st spec.n in
          if Gf2.equal x y then go () else y
        in
        go ()
  in
  let big, small =
    if Gf2.compare_big_endian x y > 0 then (x, y) else (y, x)
  in
  { demo_spec = spec; x; y; big; small }

type entry =
  | Entry : {
      meta : meta;
      demo_fix : spec -> spec;
      protocol : spec -> ('i, 'p) Dqma.protocol;
      demo : demo_ctx -> 'i * 'i;
      network : (spec -> ('i, 'p) Dqma.network) option;
      faulty : (spec -> ('i, 'p) Dqma.faulty_network) option;
      quantum_links : bool;
      conformance : bool;
    }
      -> entry

let entries : entry list ref = ref []
let meta_of (Entry e) = e.meta

let register entry =
  let m = meta_of entry in
  if List.exists (fun e -> (meta_of e).id = m.id) !entries then
    invalid_arg (Printf.sprintf "Registry.register: duplicate id %S" m.id);
  entries := !entries @ [ entry ]

let all () = !entries
let find id = List.find_opt (fun e -> (meta_of e).id = id) !entries
let ids () = List.map (fun e -> (meta_of e).id) !entries

type info = {
  info_id : string;
  info_name : string;
  info_model : Dqma.model;
  info_turns : int;
  info_summary : string;
  info_reference : string;
  info_cost : string;
  info_network : bool;
  info_fault_tolerant : bool;
  info_conformance : bool;
}

let info ?(spec = default_spec) (Entry e) =
  let p = e.protocol (e.demo_fix spec) in
  {
    info_id = e.meta.id;
    info_name = p.Dqma.name;
    info_model = p.Dqma.model;
    info_turns = p.Dqma.turns;
    info_summary = e.meta.summary;
    info_reference = e.meta.reference;
    info_cost = e.meta.cost_formula;
    info_network = e.network <> None;
    info_fault_tolerant = e.faulty <> None;
    info_conformance = e.conformance;
  }

let evaluate_demo ?x ?y spec (Entry e) =
  Qdp_obs.section e.meta.id @@ fun () ->
  let p = e.protocol spec in
  let yes, no = e.demo (context_of ?x ?y spec) in
  (p.Dqma.name, Dqma.evaluate p yes, Dqma.evaluate p no, p.Dqma.costs yes)

let cross_validate_demo ?trials ~st spec (Entry e) =
  match e.network with
  | None -> None
  | Some mk ->
      Qdp_obs.section e.meta.id @@ fun () ->
      let spec = e.demo_fix spec in
      let p = e.protocol spec in
      let network = mk spec in
      let yes, no = e.demo (context_of spec) in
      Some
        [
          ("yes", Dqma.cross_validate ?trials ~st ~network p yes);
          ("no", Dqma.cross_validate ?trials ~st ~network p no);
        ]

(* ------------------------------------------------------------------ *)
(* Fault experiments                                                   *)
(* ------------------------------------------------------------------ *)

type fault_case = {
  fc_strategy : string;
  fc_analytic : float;
  fc_prepare :
    unit ->
    Random.State.t ->
    Fault_env.t ->
    Runtime.verdict array * Runtime.stats;
  fc_run : Random.State.t -> Fault_env.t -> Runtime.verdict array * Runtime.stats;
}

type fault_suite = {
  fs_id : string;
  fs_name : string;
  fs_turns : int;
  fs_quantum_links : bool;
  fs_yes : fault_case list;
  fs_no : fault_case list;
}

let fault_suite spec (Entry e) =
  match e.faulty with
  | None -> None
  | Some mk ->
      let spec = e.demo_fix spec in
      let p = e.protocol spec in
      let faulty = mk spec in
      (* cases stay unprepared: a suite holds every strategy of an
         entry, and their states are built only while a caller runs
         one *)
      let cases inst provers =
        List.map
          (fun (name, prover) ->
            let fc_prepare () = faulty inst prover in
            {
              fc_strategy = name;
              fc_analytic = p.Dqma.accept inst prover;
              fc_prepare;
              fc_run = (fun st env -> fc_prepare () st env);
            })
          provers
      in
      let yes, no = e.demo (context_of spec) in
      let honest_of inst =
        match p.Dqma.honest inst with
        | Some h -> [ ("honest", h) ]
        | None -> []
      in
      Some
        {
          fs_id = e.meta.id;
          fs_name = p.Dqma.name;
          fs_turns = p.Dqma.turns;
          fs_quantum_links = e.quantum_links;
          fs_yes = cases yes (honest_of yes);
          fs_no = cases no (honest_of no @ p.Dqma.attacks no);
        }

let demo_suite ~seed =
  let base = { default_spec with seed; n = 24; r = 4; t = 4 } in
  List.concat_map
    (fun (Entry e) ->
      if not e.conformance then []
      else
        let spec = e.demo_fix base in
        let p = e.protocol spec in
        let yes, no = e.demo (context_of spec) in
        [ Dqma.Packed (p, yes); Dqma.Packed (p, no) ])
    (all ())
