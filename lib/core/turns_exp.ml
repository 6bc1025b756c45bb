open Qdp_codes
open Qdp_network

type row = {
  tr_turns : int;
  tr_schedule : int;
  tr_field : int;
  tr_cert_bits : int;
  tr_msg_bits : int;
  tr_bound : float;
  tr_honest_analytic : float;
  tr_honest_sampled : float;
  tr_attack : string;
  tr_attack_analytic : float;
  tr_attack_sampled : float;
}

type t = {
  tx_seed : int;
  tx_n : int;
  tx_r : int;
  tx_trials : int;
  tx_rows : row list;
}

(* One Monte-Carlo cell: its RNG reseeds from stable indices, and
   [estimate_acceptance] chunks deterministically on the pool, so every
   cell — hence the whole artifact — is byte-identical at any --jobs
   value and independent of cell evaluation order. *)
let sample ~seed ~turns ~side ~trials params x y prover =
  let st = Random.State.make [| seed; 0x7a15; turns; side |] in
  let run = Runtime_ieq.prepare params x y prover in
  Runtime.estimate_acceptance ~st ~trials (fun st ->
      fst (Runtime.accepted (run st)))

let measure_variant ~seed ~n ~r ~trials turns =
  Qdp_obs.section (Printf.sprintf "turns.ieq%d" turns) @@ fun () ->
  let params = { Ieq.n; r; turns; repetitions = 1 } in
  let q = Ieq.field params in
  let base = Gf2.random (Random.State.make [| seed; 0xd9a |]) n in
  let x, y = Ieq.adversarial_pair params base in
  let yes = (Gf2.copy x, Gf2.copy x) in
  let honest_analytic = Ieq.accept params yes Ieq.Answer_x in
  let honest_sampled =
    sample ~seed ~turns ~side:0 ~trials params (fst yes) (snd yes) Ieq.Answer_x
  in
  let attack, attack_analytic =
    List.fold_left
      (fun (bn, ba) (name, p) ->
        let a = Ieq.accept params (x, y) p in
        if a > ba then (name, a) else (bn, ba))
      ("none", 0.)
      (Ieq.attacks params)
  in
  let attack_prover =
    List.assoc attack (Ieq.attacks params)
  in
  let attack_sampled =
    sample ~seed ~turns ~side:1 ~trials params x y attack_prover
  in
  let costs = Ieq.costs params in
  {
    tr_turns = Runtime.Turn.message_turns (Runtime_ieq.schedule params ~q);
    tr_schedule = List.length (Runtime_ieq.schedule params ~q);
    tr_field = q;
    tr_cert_bits = costs.Report.local_proof_qubits;
    tr_msg_bits = costs.Report.local_message_qubits;
    tr_bound = Ieq.soundness_bound params;
    tr_honest_analytic = honest_analytic;
    tr_honest_sampled = honest_sampled;
    tr_attack = attack;
    tr_attack_analytic = attack_analytic;
    tr_attack_sampled = attack_sampled;
  }

let run ~seed ~n ~r ~trials () =
  Qdp_obs.section "turns_experiment" @@ fun () ->
  {
    tx_seed = seed;
    tx_n = n;
    tx_r = r;
    tx_trials = trials;
    tx_rows = List.map (measure_variant ~seed ~n ~r ~trials) [ 3; 2; 1 ];
  }

let fl x = Printf.sprintf "%.6f" x

let json_row w =
  Printf.sprintf
    "{\"turns\":%d,\"schedule_entries\":%d,\"field\":%d,\"cert_bits\":%d,\"msg_bits\":%d,\"soundness_bound\":%s,\"honest_analytic\":%s,\"honest_sampled\":%s,\"attack\":\"%s\",\"attack_analytic\":%s,\"attack_sampled\":%s}"
    w.tr_turns w.tr_schedule w.tr_field w.tr_cert_bits w.tr_msg_bits
    (fl w.tr_bound) (fl w.tr_honest_analytic) (fl w.tr_honest_sampled)
    w.tr_attack
    (fl w.tr_attack_analytic)
    (fl w.tr_attack_sampled)

let to_json t =
  Printf.sprintf
    "{\"seed\":%d,\"n\":%d,\"r\":%d,\"trials\":%d,\"variants\":[%s]}\n"
    t.tx_seed t.tx_n t.tx_r t.tx_trials
    (String.concat "," (List.map json_row t.tx_rows))

let write_json path t =
  let oc = open_out path in
  output_string oc (to_json t);
  close_out oc

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "turn reduction on iEQ (n=%d, r=%d, %d trials/cell):@,@," t.tx_n t.tx_r
    t.tx_trials;
  Format.fprintf ppf "%-6s %-9s %-6s %-10s %-9s %-8s %-17s %-17s %s@," "TURNS"
    "SCHEDULE" "FIELD" "CERT/NODE" "MSG/EDGE" "BOUND" "HONEST (an|mc)"
    "ATTACK (an|mc)" "BEST";
  List.iter
    (fun w ->
      Format.fprintf ppf "%-6d %-9d %-6d %-10d %-9d %-8.4f %8.4f|%-8.4f %8.4f|%-8.4f %s@,"
        w.tr_turns w.tr_schedule w.tr_field w.tr_cert_bits w.tr_msg_bits
        w.tr_bound w.tr_honest_analytic w.tr_honest_sampled
        w.tr_attack_analytic w.tr_attack_sampled w.tr_attack)
    t.tx_rows;
  Format.fprintf ppf "@]"
