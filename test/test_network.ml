(* Tests for graphs, the Section 3.3 spanning-tree construction, the
   Lemma 18 certificate and the message-passing runtime. *)

open Qdp_network

let rng = Random.State.make [| 0x6e7 |]

(* --- graphs --- *)

let test_path_metrics () =
  let g = Graph.path 6 in
  Alcotest.(check int) "size" 7 (Graph.size g);
  Alcotest.(check int) "radius" 3 (Graph.radius g);
  Alcotest.(check int) "diameter" 6 (Graph.diameter g);
  Alcotest.(check int) "center" 3 (Graph.center g);
  Alcotest.(check int) "degree of end" 1 (Graph.degree g 0);
  Alcotest.(check int) "degree of middle" 2 (Graph.degree g 3)

let test_star_metrics () =
  let g = Graph.star 5 in
  Alcotest.(check int) "radius" 1 (Graph.radius g);
  Alcotest.(check int) "diameter" 2 (Graph.diameter g);
  Alcotest.(check int) "max degree" 5 (Graph.max_degree g)

let test_cycle_metrics () =
  let g = Graph.cycle 8 in
  Alcotest.(check int) "radius" 4 (Graph.radius g);
  Alcotest.(check int) "diameter" 4 (Graph.diameter g)

let test_grid () =
  let g = Graph.grid ~w:3 ~h:4 in
  Alcotest.(check int) "size" 12 (Graph.size g);
  Alcotest.(check int) "corner degree" 2 (Graph.degree g 0);
  Alcotest.(check int) "diameter" 5 (Graph.diameter g)

let test_balanced_tree () =
  let g = Graph.balanced_tree ~arity:2 ~depth:3 in
  Alcotest.(check int) "size" 15 (Graph.size g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check int) "edges" 14 (List.length (Graph.edges g))

let test_bfs () =
  let g = Graph.cycle 6 in
  let d = Graph.bfs_distances g 0 in
  Alcotest.(check int) "antipode" 3 d.(3);
  Alcotest.(check int) "neighbour" 1 d.(5)

let test_random_connected () =
  for seed = 0 to 4 do
    let st = Random.State.make [| seed |] in
    let g = Graph.random_connected st ~n:30 ~extra_edges:10 in
    Alcotest.(check bool) "connected" true (Graph.is_connected g)
  done

let test_metric_invariants () =
  (* radius <= diameter <= 2 radius on random connected graphs *)
  for seed = 0 to 9 do
    let st = Random.State.make [| seed; 0x3e7 |] in
    let g = Graph.random_connected st ~n:15 ~extra_edges:(seed mod 6) in
    let r = Graph.radius g and d = Graph.diameter g in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: r=%d d=%d" seed r d)
      true
      (r <= d && d <= 2 * r);
    (* the center achieves the radius *)
    Alcotest.(check int) "center eccentricity" r
      (Graph.eccentricity g (Graph.center g))
  done

let test_add_edge_validation () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1)

(* --- spanning trees --- *)

let test_tree_on_path () =
  let g = Graph.path 5 in
  let tr = Spanning_tree.build g ~terminals:[ 0; 5 ] in
  (* root should be a terminal; the other terminal a leaf at depth 5 *)
  let leaves = Spanning_tree.terminal_leaves tr in
  Alcotest.(check int) "two terminals" 2 (Array.length leaves);
  Alcotest.(check int) "root is terminal 0's node" (Spanning_tree.root tr) leaves.(0);
  Alcotest.(check int) "depth of far terminal" 5 (Spanning_tree.depth tr leaves.(1));
  Alcotest.(check int) "tree spans the path" 6 (Spanning_tree.size tr)

let test_tree_terminal_leaf_rewrite () =
  (* terminals in a row: 0 - 1 - 2; terminal 1 is internal and must be
     re-attached as a leaf *)
  let g = Graph.path 2 in
  let tr = Spanning_tree.build g ~terminals:[ 0; 1; 2 ] in
  let leaves = Spanning_tree.terminal_leaves tr in
  Array.iteri
    (fun i leaf ->
      if leaf <> Spanning_tree.root tr then
        Alcotest.(check int)
          (Printf.sprintf "terminal %d is a leaf" i)
          0
          (List.length (Spanning_tree.children tr leaf)))
    leaves;
  (* the rewritten leaf is hosted on the same physical vertex *)
  Alcotest.(check bool) "hosts are valid" true
    (Array.for_all
       (fun leaf -> Spanning_tree.host tr leaf < Graph.size g)
       leaves)

let test_tree_depth_bound () =
  for seed = 0 to 3 do
    let st = Random.State.make [| seed; 9 |] in
    let g = Graph.random_connected st ~n:25 ~extra_edges:8 in
    let terminals = [ 0; 7; 13; 24 ] in
    let tr = Spanning_tree.build g ~terminals in
    let r = Graph.radius g in
    Alcotest.(check bool)
      (Printf.sprintf "height %d <= r + 1 = %d" (Spanning_tree.height tr) (r + 1))
      true
      (Spanning_tree.height tr <= r + 1)
  done

let test_tree_paths () =
  let g = Graph.star 4 in
  let tr = Spanning_tree.build g ~terminals:[ 1; 2; 3; 4 ] in
  let leaves = Spanning_tree.terminal_leaves tr in
  let path = Spanning_tree.path_to_root tr leaves.(1) in
  Alcotest.(check int) "path ends at root" (Spanning_tree.root tr)
    (List.nth path (List.length path - 1));
  Alcotest.(check int) "path starts at leaf" leaves.(1) (List.hd path)

let test_tree_rooted_at () =
  let g = Graph.path 4 in
  let tr = Spanning_tree.build_rooted_at g ~terminals:[ 0; 4 ] ~root_terminal:1 in
  let leaves = Spanning_tree.terminal_leaves tr in
  Alcotest.(check int) "root is terminal 1's node" (Spanning_tree.root tr) leaves.(1)

let test_tree_internal_nodes () =
  let g = Graph.path 4 in
  let tr = Spanning_tree.build g ~terminals:[ 0; 4 ] in
  Alcotest.(check int) "three internal nodes" 3
    (List.length (Spanning_tree.internal_nodes tr))

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* The dense edge index numbers [edges g] in order, answers both
   orientations, and follows [add_edge]. *)
let test_edge_index () =
  let g = Graph.grid ~w:3 ~h:3 in
  let edges = Graph.edges g in
  Alcotest.(check int) "edge count" (List.length edges) (Graph.edge_count g);
  List.iteri
    (fun i (u, v) ->
      Alcotest.(check (pair int int)) "edge i" (u, v) (Graph.edge g i);
      Alcotest.(check int) "u -> v" i (Graph.edge_id g u v);
      Alcotest.(check int) "v -> u" i (Graph.edge_id g v u))
    edges;
  Alcotest.(check int) "non-adjacent" (-1) (Graph.edge_id g 0 8);
  Graph.add_edge g 0 8;
  Alcotest.(check int) "index follows add_edge" (List.length edges + 1)
    (Graph.edge_count g);
  (* (0, 8) sorts after (0, 1) and (0, 3) *)
  Alcotest.(check int) "new edge id" 2 (Graph.edge_id g 8 0);
  Alcotest.(check (pair int int)) "new edge" (0, 8) (Graph.edge g 2)

let test_graph_to_dot () =
  let g = Graph.path 2 in
  let dot = Graph.to_dot ~highlight:[ 0 ] g in
  Alcotest.(check bool) "has edges and highlight" true
    (contains dot "0 -- 1" && contains dot "1 -- 2" && contains dot "fillcolor")

let test_tree_to_dot () =
  let g = Graph.star 3 in
  let tr = Spanning_tree.build g ~terminals:[ 1; 2; 3 ] in
  let dot = Spanning_tree.to_dot tr in
  Alcotest.(check bool) "mentions terminals and edges" true
    (contains dot "terminal 1" && contains dot "->")

(* --- Lemma 18 certificate --- *)

let test_certificate_honest () =
  let st = Random.State.make [| 21 |] in
  let g = Graph.random_connected st ~n:20 ~extra_edges:6 in
  let cert = Spanning_tree.certificate_of g ~root_vertex:5 in
  let verdicts = Spanning_tree.verify_certificate g cert in
  Alcotest.(check bool) "all accept" true (Array.for_all (fun b -> b) verdicts)

let test_certificate_tampered_distance () =
  let st = Random.State.make [| 22 |] in
  let g = Graph.random_connected st ~n:20 ~extra_edges:6 in
  let cert = Spanning_tree.certificate_of g ~root_vertex:0 in
  (* claim some node is closer than it is *)
  let victim =
    let d = cert.Spanning_tree.cert_dist in
    let v = ref 1 in
    Array.iteri (fun i x -> if x > d.(!v) then v := i) d;
    !v
  in
  cert.Spanning_tree.cert_dist.(victim) <- 0;
  let verdicts = Spanning_tree.verify_certificate g cert in
  Alcotest.(check bool) "someone rejects" false
    (Array.for_all (fun b -> b) verdicts)

let test_certificate_fake_root () =
  let g = Graph.path 6 in
  let cert = Spanning_tree.certificate_of g ~root_vertex:0 in
  (* a second node claims to be root *)
  cert.Spanning_tree.cert_parent.(4) <- -1;
  let verdicts = Spanning_tree.verify_certificate g cert in
  Alcotest.(check bool) "fake root caught" false
    (Array.for_all (fun b -> b) verdicts)

let test_certificate_bits () =
  let g = Graph.path 30 in
  Alcotest.(check int) "2 ceil log2 31" 10 (Spanning_tree.certificate_bits g)

(* --- runtime --- *)

let test_runtime_flood () =
  (* node 0 floods a token; after r rounds everyone within distance r
     has it *)
  let g = Graph.path 5 in
  let program =
    {
      Runtime.init = (fun id -> id = 0);
      round =
        (fun ~round:_ ~id:_ has ~inbox ->
          let has' = has || inbox <> [] in
          ((has' : bool), []));
      finish =
        (fun ~id:_ has -> if has then Runtime.Accept else Runtime.Reject);
    }
  in
  (* no messages sent: only node 0 accepts *)
  let verdicts, stats = Runtime.run g ~rounds:1 program in
  Alcotest.(check int) "no traffic" 0 stats.Runtime.messages;
  Alcotest.(check bool) "only source accepts" true
    (verdicts.(0) = Runtime.Accept && verdicts.(1) = Runtime.Reject)

let test_runtime_neighbour_exchange () =
  let g = Graph.cycle 6 in
  let program =
    {
      Runtime.init = (fun id -> (id, 0));
      round =
        (fun ~round ~id (me, seen) ~inbox ->
          match round with
          | 1 ->
              ((me, seen), List.map (fun v -> (v, me)) (Graph.neighbours g id))
          | _ -> ((me, seen + List.length inbox), []));
      finish =
        (fun ~id:_ (_, seen) ->
          if seen = 2 then Runtime.Accept else Runtime.Reject);
    }
  in
  let verdicts, stats = Runtime.run g ~rounds:2 program in
  Alcotest.(check bool) "everyone heard both neighbours" true
    (Runtime.global_verdict verdicts = Runtime.Accept);
  Alcotest.(check int) "12 messages" 12 stats.Runtime.messages;
  Alcotest.(check int) "6 busy edges" 6 (List.length stats.Runtime.per_edge)

let test_runtime_rejects_non_neighbour () =
  let g = Graph.path 3 in
  let program =
    {
      Runtime.init = (fun _ -> ());
      round = (fun ~round:_ ~id (_ : unit) ~inbox:_ -> ((), [ ((id + 2) mod 4, 0) ]));
      finish = (fun ~id:_ () -> Runtime.Accept);
    }
  in
  Alcotest.(check bool) "raises structured error" true
    (try
       ignore (Runtime.run g ~rounds:1 program);
       false
     with Runtime.Protocol_error { node; round; turn; target } ->
       (* the one-shot schedule is prover turn 1 + verifier turn 2 *)
       node >= 0 && round = 1 && turn = 2 && target = (node + 2) mod 4)

(* Per-edge traffic under a plan that drops and duplicates messages:
   every node sends [1 + (id + round) mod 3] copies to each neighbour
   in all but the last round, and the receivers' inboxes are the
   reference tally ([per_edge] counts deliveries, after faults). *)
let test_runtime_per_edge_faulted () =
  List.iter
    (fun (name, g) ->
      let n = Graph.size g in
      let rounds = 4 in
      let heard = Array.make n [] in
      let program =
        {
          Runtime.init = (fun _ -> ());
          round =
            (fun ~round ~id () ~inbox ->
              heard.(id) <- List.map fst inbox @ heard.(id);
              if round = rounds then ((), [])
              else
                ( (),
                  List.concat_map
                    (fun v ->
                      List.init (1 + ((id + round) mod 3)) (fun _ -> (v, ())))
                    (Graph.neighbours g id) ));
          finish = (fun ~id:_ () -> Runtime.Accept);
        }
      in
      let link =
        { Fault.perfect_link with Fault.drop = 0.2; duplicate = 0.3 }
      in
      let faults =
        Fault.make ~st:(Random.State.make [| 0xed9e; n |])
          { Fault.none with Fault.default_link = link }
      in
      let _, stats = Runtime.run ~faults g ~rounds program in
      let expected = Hashtbl.create 16 in
      Array.iteri
        (fun v srcs ->
          List.iter
            (fun u ->
              let e = (min u v, max u v) in
              Hashtbl.replace expected e
                (1 + Option.value ~default:0 (Hashtbl.find_opt expected e)))
            srcs)
        heard;
      let expected =
        List.sort compare
          (Hashtbl.fold (fun e c acc -> (e, c) :: acc) expected [])
      in
      let per_edge = stats.Runtime.per_edge in
      let counts = Option.get stats.Runtime.faults in
      Alcotest.(check bool) (name ^ ": drops and duplicates injected") true
        (counts.Fault.dropped > 0 && counts.Fault.duplicated > 0);
      Alcotest.(check (list (pair (pair int int) int)))
        (name ^ ": exact per-edge counts") expected per_edge;
      Alcotest.(check bool) (name ^ ": (min, max) keys, strictly sorted") true
        (List.for_all (fun ((u, v), _) -> u < v) per_edge
        &&
        let keys = List.map fst per_edge in
        List.sort_uniq compare keys = keys);
      Alcotest.(check int) (name ^ ": sums to messages") stats.Runtime.messages
        (List.fold_left (fun acc (_, c) -> acc + c) 0 per_edge))
    [
      ("star", Graph.star 6);
      ("cycle", Graph.cycle 7);
      ("grid", Graph.grid ~w:3 ~h:4);
    ]

let test_estimate_acceptance () =
  let p = Runtime.estimate_acceptance ~st:rng ~trials:500 Random.State.bool in
  Alcotest.(check bool) "coin near half" true (Float.abs (p -. 0.5) < 0.1)

let () =
  Alcotest.run "network"
    [
      ( "graph",
        [
          Alcotest.test_case "path metrics" `Quick test_path_metrics;
          Alcotest.test_case "star metrics" `Quick test_star_metrics;
          Alcotest.test_case "cycle metrics" `Quick test_cycle_metrics;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "balanced tree" `Quick test_balanced_tree;
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "random connected" `Quick test_random_connected;
          Alcotest.test_case "metric invariants" `Quick test_metric_invariants;
          Alcotest.test_case "edge validation" `Quick test_add_edge_validation;
          Alcotest.test_case "edge index" `Quick test_edge_index;
        ] );
      ( "spanning_tree",
        [
          Alcotest.test_case "path tree" `Quick test_tree_on_path;
          Alcotest.test_case "terminal-leaf rewrite" `Quick
            test_tree_terminal_leaf_rewrite;
          Alcotest.test_case "depth bound" `Quick test_tree_depth_bound;
          Alcotest.test_case "paths to root" `Quick test_tree_paths;
          Alcotest.test_case "rooted at" `Quick test_tree_rooted_at;
          Alcotest.test_case "internal nodes" `Quick test_tree_internal_nodes;
        ] );
      ( "dot",
        [
          Alcotest.test_case "graph export" `Quick test_graph_to_dot;
          Alcotest.test_case "tree export" `Quick test_tree_to_dot;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "honest accepted" `Quick test_certificate_honest;
          Alcotest.test_case "tampered distance" `Quick
            test_certificate_tampered_distance;
          Alcotest.test_case "fake root" `Quick test_certificate_fake_root;
          Alcotest.test_case "bit accounting" `Quick test_certificate_bits;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "no flood" `Quick test_runtime_flood;
          Alcotest.test_case "neighbour exchange" `Quick
            test_runtime_neighbour_exchange;
          Alcotest.test_case "non-neighbour rejected" `Quick
            test_runtime_rejects_non_neighbour;
          Alcotest.test_case "per-edge counts under faults" `Quick
            test_runtime_per_edge_faulted;
          Alcotest.test_case "estimate acceptance" `Quick test_estimate_acceptance;
        ] );
    ]
