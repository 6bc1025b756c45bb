open Qdp_network

type msg =
  | Commit of bool
  | Answer of Ieq.answer
  | Table of int array
  | Check of { b : bool option; ans : Ieq.answer option }
  | Probe of { beta : int; value : int }

type node_state = {
  id : int;
  mutable commit : bool option;
  mutable answer : Ieq.answer option;
  mutable tbl : int array option;
  mutable verdict : Runtime.verdict;
}

let schedule (p : Ieq.params) ~q =
  match p.Ieq.turns with
  | 3 ->
      [
        Runtime.Turn.Prover;
        Verifier { rounds = 0; coin_range = q };
        Prover;
        Verifier { rounds = 2; coin_range = 0 };
      ]
  | 2 ->
      [
        Runtime.Turn.Verifier { rounds = 0; coin_range = q };
        Prover;
        Verifier { rounds = 2; coin_range = 0 };
      ]
  | _ -> [ Runtime.Turn.Prover; Verifier { rounds = 2; coin_range = q } ]

(* Schedule entry that deals the coins each variant's decision reads. *)
let coin_turn (p : Ieq.params) = match p.Ieq.turns with 2 -> 1 | _ -> 2

let prover_writes (p : Ieq.params) ~q ~tables x y prover ~turn transcript =
  let nodes = List.init (p.Ieq.r + 1) Fun.id in
  match (p.Ieq.turns, turn) with
  | 3, 1 ->
      List.map
        (fun i -> (i, Commit (Ieq.parity (Ieq.source p x y prover i))))
        nodes
  | 3, 3 | 2, 2 ->
      (* public-coin model: the challenge is v_0's coin, revealed to
         the prover through the transcript *)
      let alpha =
        (Runtime.Transcript.coins transcript ~turn:(coin_turn p)).(0)
      in
      List.map
        (fun i -> (i, Answer (Ieq.respond p ~q x y prover ~alpha i)))
        nodes
  | 1, 1 -> List.map (fun i -> (i, Table tables.(i))) nodes
  | _ -> []

(* Verification exchange of the 2/3-turn variants: announce the
   received commit/response to every neighbour, then reject on any
   hop mismatch or missing neighbour. *)
let chain_round (p : Ieq.params) g ~round ~id state ~inbox =
  match round with
  | 1 ->
      ( state,
        List.map
          (fun v -> (v, Check { b = state.commit; ans = state.answer }))
          (Graph.neighbours g id) )
  | 2 ->
      let expected = Graph.neighbours g id in
      let senders = List.sort_uniq compare (List.map fst inbox) in
      if List.length senders <> List.length expected then
        state.verdict <- Runtime.Reject;
      List.iter
        (fun (_, m) ->
          match m with
          | Check { b; ans } ->
              if p.Ieq.turns = 3 && b <> state.commit then
                state.verdict <- Runtime.Reject;
              if ans <> state.answer then state.verdict <- Runtime.Reject
          | _ -> state.verdict <- Runtime.Reject)
        inbox;
      (state, [])
  | _ -> (state, [])

(* Verification exchange of the 1-turn variant: each node probes its
   right neighbour's table at its own private coin. *)
let probe_round (p : Ieq.params) ~round ~coin ~id state ~inbox =
  let r = p.Ieq.r in
  match round with
  | 1 ->
      let out =
        match state.tbl with
        | Some t when id < r && coin < Array.length t ->
            [ (id + 1, Probe { beta = coin; value = t.(coin) }) ]
        | _ -> []
      in
      (state, out)
  | 2 ->
      if id > 0 && not (List.exists (fun (s, _) -> s = id - 1) inbox) then
        state.verdict <- Runtime.Reject;
      List.iter
        (fun (_, m) ->
          match m with
          | Probe { beta; value } -> (
              match state.tbl with
              | Some t when Ieq.probe_ok t ~beta ~value -> ()
              | _ -> state.verdict <- Runtime.Reject)
          | _ -> state.verdict <- Runtime.Reject)
        inbox;
      (state, [])
  | _ -> (state, [])

let finish (p : Ieq.params) ~q ~left_ok x y ~transcript ~id state =
  let r = p.Ieq.r in
  if state.verdict = Runtime.Reject then Runtime.Reject
  else
    let ok =
      if p.Ieq.turns = 1 then
        if id = 0 then
          match state.tbl with Some t -> left_ok t | None -> false
        else if id = r then
          let beta = (Runtime.Transcript.coins transcript ~turn:2).(id) in
          match state.tbl with
          | Some t -> Ieq.table_ok_right ~q y t ~coin:beta
          | None -> false
        else state.tbl <> None
      else
        let com_ok =
          p.Ieq.turns < 3
          ||
          match state.commit with
          | Some b ->
              if id = 0 then Ieq.commit_ok_left x b
              else if id = r then Ieq.commit_ok_right y b
              else true
          | None -> false
        in
        let ans_ok =
          match state.answer with
          | Some a ->
              if id = 0 then
                let coin =
                  (Runtime.Transcript.coins transcript ~turn:(coin_turn p)).(0)
                in
                Ieq.answer_ok_left ~q x ~coin a
              else if id = r then Ieq.answer_ok_right ~q y a
              else true
          | None -> false
        in
        com_ok && ans_ok
    in
    if ok then Runtime.Accept else Runtime.Reject

let program (p : Ieq.params) ~q ~left_ok g x y =
  {
    Runtime.tp_init =
      (fun id ->
        { id; commit = None; answer = None; tbl = None; verdict = Accept });
    tp_deliver =
      (fun ~turn:_ ~id:_ state m ->
        (match m with
        | Commit b -> state.commit <- Some b
        | Answer a -> state.answer <- Some a
        | Table t -> state.tbl <- Some t
        (* the prover speaking the node-to-node dialect is nonsense *)
        | Check _ | Probe _ -> state.verdict <- Runtime.Reject);
        state);
    tp_round =
      (fun ~turn:_ ~round ~coin ~id state ~inbox ->
        if p.Ieq.turns = 1 then probe_round p ~round ~coin ~id state ~inbox
        else chain_round p g ~round ~id state ~inbox);
    tp_finish =
      (fun ~transcript ~id state ->
        finish p ~q ~left_ok x y ~transcript ~id state);
  }

(* Classical payloads: corruption perturbs one field element by +1
   mod q, or flips the commit bit — the smallest lie the checks can
   meet (cf. Rpls.flip_parity). *)
let corrupt ~q st m =
  let bump v = (v + 1) mod q in
  match m with
  | Commit b -> Commit (not b)
  | Answer a ->
      if Random.State.bool st then Answer { a with Ieq.a_eval = bump a.Ieq.a_eval }
      else Answer { a with Ieq.a_alpha = bump a.Ieq.a_alpha }
  | Table t ->
      let t = Array.copy t in
      let i = Random.State.int st (Array.length t) in
      t.(i) <- bump t.(i);
      Table t
  | Check { b; ans = Some a } ->
      Check { b; ans = Some { a with Ieq.a_eval = bump a.Ieq.a_eval } }
  | Check { b; ans = None } -> Check { b = Option.map not b; ans = None }
  | Probe { beta; value } -> Probe { beta; value = bump value }

let prepare (p : Ieq.params) x y prover =
  Ieq.validate p;
  let q = Ieq.field p in
  let g = Graph.path p.Ieq.r in
  let schedule = schedule p ~q in
  (* the 1-turn certificate: every node's full evaluation table, and
     v_0's anchor with its reference table built once *)
  let tables =
    if p.Ieq.turns = 1 then
      Array.init (p.Ieq.r + 1) (fun i ->
          Ieq.table ~q (Ieq.source p x y prover i))
    else [||]
  in
  let left_ok = Ieq.table_ok_left ~q x in
  let program = program p ~q ~left_ok g x y in
  fun ?faults st ->
    let faults = Option.map (Fault_env.injector ~corrupt:(corrupt ~q)) faults in
    let verdicts, stats, _transcript =
      Runtime.run_turns ?faults ~st g ~schedule
        ~prover:(fun ~turn transcript ->
          prover_writes p ~q ~tables x y prover ~turn transcript)
        program
    in
    (verdicts, stats)

let run_once st p x y prover = Runtime.accepted (prepare p x y prover st)
let run_faulty st env p x y prover = prepare p x y prover ~faults:env st
