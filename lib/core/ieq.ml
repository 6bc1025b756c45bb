open Qdp_codes

type params = { n : int; r : int; turns : int; repetitions : int }

let validate p =
  if p.n <= 0 then invalid_arg "Ieq: n must be positive";
  if p.r < 1 then invalid_arg "Ieq: path length r must be >= 1";
  if p.turns < 1 || p.turns > 3 then invalid_arg "Ieq: turns must be 1, 2 or 3";
  if p.repetitions < 1 then invalid_arg "Ieq: repetitions must be >= 1"

let is_prime k =
  let rec go d = (d * d > k) || (k mod d <> 0 && go (d + 1)) in
  k >= 2 && go 2

let field p =
  let rec next q = if is_prime q then q else next (q + 1) in
  next (max (4 * p.n) 11)

(* Horner over F_q; bit i of x is the degree-i coefficient. *)
let poly_eval ~q x alpha =
  let acc = ref 0 in
  for i = Gf2.length x - 1 downto 0 do
    acc := ((!acc * alpha) + if Gf2.get x i then 1 else 0) mod q
  done;
  !acc

let parity x = Gf2.weight x land 1 = 1
let table ~q x = Array.init q (fun alpha -> poly_eval ~q x alpha)

type prover = Answer_x | Answer_y | Split of int

let source _p x y prover i =
  match prover with
  | Answer_x -> x
  | Answer_y -> y
  | Split j -> if i <= j then x else y

type answer = { a_alpha : int; a_eval : int }

let respond p ~q x y prover ~alpha i =
  { a_alpha = alpha; a_eval = poly_eval ~q (source p x y prover i) alpha }

let commit_ok_left x b = Bool.equal b (parity x)
let commit_ok_right y b = Bool.equal b (parity y)

let answer_ok_left ~q x ~coin a =
  a.a_alpha = coin && a.a_eval = poly_eval ~q x a.a_alpha

let answer_ok_right ~q y a = a.a_eval = poly_eval ~q y a.a_alpha
let table_ok_left ~q x =
  let expected = table ~q x in
  fun t -> t = expected

let probe_ok t ~beta ~value =
  beta >= 0 && beta < Array.length t && t.(beta) = value

let table_ok_right ~q y t ~coin = probe_ok t ~beta:coin ~value:(poly_eval ~q y coin)

(* 2/3-turn variants: the only randomness is v_0's public challenge,
   so exact acceptance is the average of the decision predicate over
   all q coins.  The chain checks and endpoint anchors below are the
   same predicates the network nodes evaluate on the sampled coin. *)
let accept_interactive p ~q x y prover =
  let r = p.r in
  let hits = ref 0 in
  for coin = 0 to q - 1 do
    let ans = Array.init (r + 1) (respond p ~q x y prover ~alpha:coin) in
    let com = Array.init (r + 1) (fun i -> parity (source p x y prover i)) in
    let chain = ref true in
    for i = 0 to r - 1 do
      if ans.(i) <> ans.(i + 1) then chain := false;
      if p.turns = 3 && com.(i) <> com.(i + 1) then chain := false
    done;
    let left =
      answer_ok_left ~q x ~coin ans.(0)
      && (p.turns < 3 || commit_ok_left x com.(0))
    in
    let right =
      answer_ok_right ~q y ans.(r)
      && (p.turns < 3 || commit_ok_right y com.(r))
    in
    if !chain && left && right then incr hits
  done;
  float_of_int !hits /. float_of_int q

(* 1-turn variant: v_0's table anchor is deterministic; each of the r
   edge probes uses the left endpoint's private coin and v_r's anchor
   uses its own, so every coin appears in exactly one check and the
   acceptance probability is the product of agreement fractions. *)
let accept_one_turn p ~q x y prover =
  let r = p.r in
  let t = Array.init (r + 1) (fun i -> table ~q (source p x y prover i)) in
  if not (table_ok_left ~q x t.(0)) then 0.
  else begin
    let fq = float_of_int q in
    let acc = ref 1. in
    for i = 0 to r - 1 do
      let agree = ref 0 in
      for beta = 0 to q - 1 do
        if probe_ok t.(i + 1) ~beta ~value:t.(i).(beta) then incr agree
      done;
      acc := !acc *. (float_of_int !agree /. fq)
    done;
    let right = ref 0 in
    for beta = 0 to q - 1 do
      if table_ok_right ~q y t.(r) ~coin:beta then incr right
    done;
    !acc *. (float_of_int !right /. fq)
  end

let accept p (x, y) prover =
  validate p;
  let q = field p in
  if p.turns = 1 then accept_one_turn p ~q x y prover
  else accept_interactive p ~q x y prover

let attacks p =
  [
    ("answer-x", Answer_x);
    ("answer-y", Answer_y);
    ("split-mid", Split (p.r / 2));
  ]

let soundness_bound p =
  float_of_int (p.n - 1) /. float_of_int (field p)

let adversarial_pair p base =
  validate p;
  let q = field p in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let d = ref 1 in
  for c = 1 to p.n - 1 do
    if gcd c (q - 1) > gcd !d (q - 1) then d := c
  done;
  let x = Gf2.copy base in
  Gf2.set x 0 true;
  Gf2.set x !d false;
  let y = Gf2.copy x in
  Gf2.set y 0 false;
  Gf2.set y !d true;
  (x, y)

let bits q =
  let rec go w k = if k = 0 then w else go (w + 1) (k lsr 1) in
  go 0 (max 0 (q - 1))

let costs p =
  validate p;
  let q = field p in
  let lg = bits q in
  let per_node, per_edge =
    match p.turns with
    | 3 -> (1 + (2 * lg), 2 * (1 + (2 * lg)))
    | 2 -> (2 * lg, 2 * 2 * lg)
    | _ -> (q * lg, 2 * lg)
  in
  {
    Report.local_proof_qubits = per_node;
    total_proof_qubits = (p.r + 1) * per_node;
    local_message_qubits = per_edge;
    total_message_qubits = p.r * per_edge;
    rounds = 1;
  }
